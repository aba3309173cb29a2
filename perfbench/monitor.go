package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pglp/panda/internal/server/wire"
)

// monitorBatch is how many timesteps a monitor-steady step reports.
const monitorBatch = 25

// monitorSampled is how many devices keep their releases for the
// read-back check.
const monitorSampled = 8

// sampled reports whether device u of n keeps its releases.
func sampled(u, n int) bool { return u%max(1, n/monitorSampled) == 0 }

// setupMonitor warms the devices; monitor-steady reports nothing
// before its window.
func setupMonitor(ctx context.Context, e *env) error { return e.warm(ctx) }

// runMonitor is monitor-steady: a closed loop of nproc workers, each
// cycling over its own share of the warmed devices. A step perturbs the
// device's next monitorBatch timesteps and reports them synchronously
// over JSON. Time only advances, so nothing is replaced, and no policy
// or analytics work happens in the window.
func runMonitor(ctx context.Context, e *env, dur time.Duration) (*outcome, error) {
	var acks samples
	var attempted, failed, accepted, replaced, releases atomic.Int64
	w := e.openWindow()
	deadline := w.start.Add(dur)
	var wg sync.WaitGroup
	errs := make(chan error, e.workers)
	for k := 0; k < e.workers; k++ {
		var own []*device
		for _, d := range e.devs {
			if d.user%e.workers == k {
				own = append(own, d)
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			ts := make([]int, monitorBatch)
			for j := 0; ctx.Err() == nil && time.Now().Before(deadline); j++ {
				d := own[j%len(own)]
				for i := range ts {
					ts[i] = d.next + i
				}
				rel, err := e.perturb(d, ts)
				if err != nil {
					errs <- err
					return
				}
				attempted.Add(1)
				start := time.Now()
				resp, err := call(ctx, e, "reports", d.user, len(rel), func(ctx context.Context) (wire.BatchReportResponse, error) {
					return d.c.ReportBatchContext(ctx, d.user, rel)
				})
				if err != nil {
					acks.add(time.Since(start), 0)
					failed.Add(1)
					continue
				}
				acks.add(time.Since(start), len(rel))
				accepted.Add(int64(resp.Accepted))
				replaced.Add(int64(resp.Replaced))
				releases.Add(int64(len(rel)))
				d.next += len(rel)
				if sampled(d.user, len(e.devs)) {
					d.sent = append(d.sent, rel...)
				}
			}
		}()
	}
	wg.Wait()
	e.closeWindow(w)
	close(errs)
	if err := <-errs; err != nil {
		return nil, err
	}
	o := &outcome{
		win:       w,
		attempted: int(attempted.Load()),
		failed:    int(failed.Load()),
		releases:  int(releases.Load()),
		head:      summarizeWindow(acks.snapshot(), w, dur),
		accepted:  int(accepted.Load()),
		replaced:  int(replaced.Load()),
	}
	o.named.add("ingest_releases_per_s", o.head.rate, "1/s", o.head.n)
	o.named.add("ingest_ack_p50_ms", ms(o.head.p50), "ms", o.head.n)
	o.named.add("ingest_ack_p99_ms", ms(o.head.p99), "ms", o.head.n)
	return o, nil
}

// checkMonitor verifies that the store holds exactly what was accepted
// and that sampled devices read back exactly the points they sent.
func checkMonitor(ctx context.Context, e *env, o *outcome) error {
	if o.replaced != 0 {
		return fmt.Errorf("monitor-steady: %d releases replaced, want 0 (time only advances)", o.replaced)
	}
	if n := e.st.db.Len(); n != o.accepted {
		return fmt.Errorf("monitor-steady: store holds %d records, devices were acknowledged %d", n, o.accepted)
	}
	for _, d := range e.devs {
		if !sampled(d.user, len(e.devs)) {
			continue
		}
		var got []wire.Record
		cursor := ""
		for {
			page, err := d.c.RecordsPageContext(ctx, d.user, cursor, 1000)
			if err != nil {
				return fmt.Errorf("monitor-steady: reading back device %d: %w", d.user, err)
			}
			got = append(got, page.Records...)
			if page.NextCursor == "" {
				break
			}
			cursor = page.NextCursor
		}
		if len(got) != len(d.sent) {
			return fmt.Errorf("monitor-steady: device %d reads back %d records, sent %d", d.user, len(got), len(d.sent))
		}
		for i, r := range got {
			s := d.sent[i]
			if r.T != s.T || r.X != s.X || r.Y != s.Y {
				return fmt.Errorf("monitor-steady: device %d record %d is (t %d, %v, %v), sent (t %d, %v, %v)",
					d.user, i, r.T, r.X, r.Y, s.T, s.X, s.Y)
			}
		}
	}
	return nil
}
