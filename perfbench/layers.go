package main

import (
	"fmt"
	"time"
)

// queryRoutes are the analytics endpoints the analysis reader calls.
var queryRoutes = []string{"density", "series", "exposure", "census", "healthcode"}

// spanMetrics derives the per-layer metrics that come from spans of the
// traced window. workers is the request concurrency, the divisor that
// turns summed device-side busy time into wall time for outbreak-waves.
func spanMetrics(ix *spanIndex, o *outcome, workload string, workers int) metrics {
	var m metrics
	p50ms := func(ds []time.Duration) float64 { return ms(quantile(ds, 0.5)) }
	p50us := func(ds []time.Duration) float64 { return us(quantile(ds, 0.5)) }
	sumN := func(idx []int) int {
		n := 0
		for _, i := range idx {
			n += ix.spans[i].n
		}
		return n
	}
	names := func(prefix string, routes []string) []int {
		var out []int
		for _, r := range routes {
			out = append(out, ix.named(prefix+r)...)
		}
		return out
	}

	rel := ix.named("mechanism.release")
	m.add("mechanism.release_calls", float64(sumN(rel)), "count", 0)
	m.add("mechanism.release_busy_ms", ms(sum(ix.durations(rel))), "ms", 0)
	nw := ix.named("mechanism.new")
	m.add("mechanism.new_calls", float64(len(nw)), "count", 0)
	m.add("mechanism.new_p50_ms", p50ms(ix.durations(nw)), "ms", len(nw))

	cpol := ix.named("client.policy")
	m.add("client.policy_calls", float64(len(cpol)), "count", 0)
	m.add("client.policy_self_p50_ms", p50ms(ix.selfTimes(cpol)), "ms", len(cpol))
	crep := ix.named("client.reports")
	m.add("client.report_self_p50_us", p50us(ix.selfTimes(crep)), "us", len(crep))
	cq := names("client.", queryRoutes)
	m.add("client.query_self_p50_us", p50us(ix.selfTimes(cq)), "us", len(cq))

	hpol := ix.named("http.policy")
	m.add("http.policy_wire_p50_us", p50us(ix.selfTimes(hpol)), "us", len(hpol))
	hrep := ix.named("http.reports")
	m.add("http.report_wire_p50_us", p50us(ix.selfTimes(hrep)), "us", len(hrep))
	spol := ix.named("server.policy")
	bytes := make([]time.Duration, len(spol))
	for j, i := range spol {
		bytes[j] = time.Duration(ix.spans[i].n)
	}
	m.add("http.policy_bytes", float64(quantile(bytes, 0.5)), "B", len(spol))
	m.add("server.policy_self_p50_ms", p50ms(ix.selfTimes(spol)), "ms", len(spol))
	srep := ix.named("server.reports")
	m.add("server.reports_self_p50_us", p50us(ix.selfTimes(srep)), "us", len(srep))

	inf := ix.named("server.infected")
	m.add("policy.mark_infected_ms", p50ms(ix.durations(inf)), "ms", len(inf))

	ins := ix.named("storage.insert_batch")
	m.add("storage.insert_batch_calls", float64(len(ins)), "count", 0)
	m.add("storage.insert_batch_records", float64(sumN(ins)), "count", 0)
	m.add("storage.insert_batch_p50_us", p50us(ix.durations(ins)), "us", len(ins))
	m.add("storage.insert_batch_busy_ms", ms(sum(ix.durations(ins))), "ms", 0)
	scans := ix.named("storage.scan_range")
	perCall := 0.0
	if len(scans) > 0 {
		perCall = float64(sumN(scans)) / float64(len(scans))
	}
	m.add("storage.scan_range_calls", float64(len(scans)), "count", 0)
	m.add("storage.scan_range_records_per_call", perCall, "count", 0)
	m.add("storage.scan_range_busy_ms", ms(sum(ix.durations(scans))), "ms", 0)
	ur := ix.named("storage.user_records")
	m.add("storage.user_records_p50_us", p50us(ix.durations(ur)), "us", len(ur))

	for _, r := range queryRoutes {
		s := ix.named("server." + r)
		m.add("analytics."+r+"_self_p50_us", p50us(ix.selfTimes(s)), "us", len(s))
	}

	var drains []int
	for _, i := range ins {
		if ix.spans[i].parent == 0 {
			drains = append(drains, i)
		}
	}
	perDrain := 0.0
	if len(drains) > 0 {
		perDrain = float64(sumN(drains)) / float64(len(drains))
	}
	m.add("ingest.records_per_drain_batch", perDrain, "count", len(drains))

	m.add("bench.layer_share_pct", layerShare(ix, o, workload, workers), "%", 0)
	return m
}

// layerShare is the share of the workload's headline that the layers
// it was chosen for account for:
//   - monitor-steady: the report path (client encode/decode, wire,
//     server decode/validate, store insert) over the summed ack time;
//   - outbreak-waves: MarkInfected plus the per-device policy work
//     (mechanism build, client graph decode, server graph marshal,
//     divided by the worker count) over the summed wave time;
//   - analysis-mixed: analytics handler self time plus the store reads
//     under the queries over the summed query time.
func layerShare(ix *spanIndex, o *outcome, workload string, workers int) float64 {
	pct := func(part, whole time.Duration) float64 {
		if whole <= 0 {
			return 0
		}
		return 100 * float64(part) / float64(whole)
	}
	underParent := func(names ...string) time.Duration {
		var d time.Duration
		for _, n := range names {
			for _, i := range ix.named(n) {
				if ix.spans[i].parent != 0 {
					d += ix.dur(i)
				}
			}
		}
		return d
	}
	switch workload {
	case "monitor-steady":
		part := sum(ix.selfTimes(ix.named("client.reports"))) +
			sum(ix.selfTimes(ix.named("http.reports"))) +
			sum(ix.selfTimes(ix.named("server.reports"))) +
			underParent("storage.insert_batch")
		return pct(part, sum(ix.durations(ix.named("client.reports"))))
	case "outbreak-waves":
		perDevice := sum(ix.durations(ix.named("mechanism.new"))) +
			sum(ix.selfTimes(ix.named("client.policy"))) +
			sum(ix.selfTimes(ix.named("server.policy")))
		part := sum(ix.durations(ix.named("server.infected"))) + perDevice/time.Duration(workers)
		return pct(part, sum(o.waves))
	case "analysis-mixed":
		var part, whole time.Duration
		for _, r := range queryRoutes {
			part += sum(ix.selfTimes(ix.named("server." + r)))
			whole += sum(ix.durations(ix.named("client." + r)))
		}
		part += underParent("storage.scan_range", "storage.users", "storage.user_records")
		return pct(part, whole)
	}
	return 0
}

// walBytes syncs the WAL and returns the size of its directory.
func walBytes(e *env) (int64, error) {
	if err := e.st.wal.Sync(); err != nil {
		return 0, fmt.Errorf("syncing the WAL: %w", err)
	}
	size, err := dirBytes(e.st.dir)
	if err != nil {
		return 0, fmt.Errorf("sizing the WAL directory: %w", err)
	}
	return size, nil
}

// counterMetrics derives the per-layer metrics that come from the
// server's and the runtime's own counters over the untraced window, so
// tracing cannot inflate them. users is the policy manager's user count
// and size the WAL directory's size after the window.
func counterMetrics(o *outcome, users int, size int64) metrics {
	var m metrics
	w := o.win
	m.add("policy.users", float64(users), "count", 0)

	hits, misses := w.an1.Hits-w.an0.Hits, w.an1.Misses-w.an0.Misses
	rate := 0.0
	if hits+misses > 0 {
		rate = float64(hits) / float64(hits+misses)
	}
	m.add("analytics.hits", float64(hits), "count", 0)
	m.add("analytics.misses", float64(misses), "count", 0)
	m.add("analytics.hit_rate", rate, "ratio", 0)

	m.add("ingest.drained", float64(w.in1.Drained-w.in0.Drained), "count", 0)
	m.add("ingest.rejected", float64(w.in1.Rejected-w.in0.Rejected), "count", 0)
	m.add("ingest.lag_ms", ms(w.in1.Lag), "ms", 0)

	perRec := 0.0
	if n := w.wal1.LiveRecords + w.wal1.Garbage; n > 0 {
		perRec = float64(size) / float64(n)
	}
	m.add("wal.bytes_per_record", perRec, "B", 0)
	m.add("wal.compactions", float64(w.wal1.Compactions), "count", 0)
	m.add("wal.garbage_records", float64(w.wal1.Garbage), "count", 0)

	allocs := 0.0
	if o.releases > 0 {
		allocs = float64(w.ms1.Mallocs-w.ms0.Mallocs) / float64(o.releases)
	}
	m.add("runtime.allocs_per_release", allocs, "count", 0)
	heap := 0.0
	if o.releases > 0 {
		heap = (float64(w.ms1.HeapAlloc) - float64(w.ms0.HeapAlloc)) / float64(o.releases)
	}
	m.add("runtime.heap_growth_bytes_per_release", heap, "B", 0)
	m.add("runtime.gc_pause_ms", float64(w.ms1.PauseTotalNs-w.ms0.PauseTotalNs)/1e6, "ms", 0)
	m.add("bench.lateness_p99_ms", ms(quantile(o.lateness, 0.99)), "ms", len(o.lateness))
	return m
}

// addOverhead adds bench.tracing_overhead_pct.<metric>: the traced
// minus the untraced value of each end-to-end metric, in percent.
func addOverhead(m *metrics, base, traced metrics) {
	for _, b := range base.list {
		t, _ := traced.get(b.name)
		pct := 0.0
		if b.value != 0 {
			pct = 100 * (t.value - b.value) / b.value
		}
		m.add("bench.tracing_overhead_pct."+b.name, pct, "%", 0)
	}
}
