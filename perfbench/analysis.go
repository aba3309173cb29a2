package main

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pglp/panda/internal/geo"
	"github.com/pglp/panda/internal/server"
)

const (
	// preloadSteps is the history every device reports in set-up.
	preloadSteps = 48
	// analysisInfected is how many of the plan's hotspot cells are
	// infected before the devices warm, so exposure and health codes
	// have something to find and no renegotiation falls in the window.
	analysisInfected = 4
	// feedRate is the open-loop writer's fixed rate in batches per
	// second, and feedBatch the timesteps in each batch: 500 releases
	// per second, far below what the ingest path sustains, so the query
	// mix and its cache invalidations are the same on any commit. The
	// rate is also low enough that a 20 s window adds about a fifth to
	// the preloaded history: census and health-code misses scan every
	// record of a user, so a history that doubled inside the window
	// would slow the readers down steadily through it.
	feedRate  = 100
	feedBatch = 5
	// blocks is the region size of the density queries (8x8 regions).
	blocks = 4
	// seriesLen and exposureLen are the ranges of the series and
	// exposure queries, in timesteps.
	seriesLen   = 8
	exposureLen = 8
	// censusWindow is the census query's window (one simulated day).
	censusWindow = 24
)

// setupAnalysis infects the first hotspots before any device negotiates
// (so devices warm under the final policy), then preloads every
// device's history over the binary path.
func setupAnalysis(ctx context.Context, e *env) error {
	if _, err := e.admin.MarkInfectedContext(ctx, e.in.cells[:analysisInfected]); err != nil {
		return fmt.Errorf("analysis-mixed: marking infected: %w", err)
	}
	if err := e.warm(ctx); err != nil {
		return err
	}
	return e.forDevices(ctx, func(d *device) error {
		ts := make([]int, preloadSteps)
		for i := range ts {
			ts[i] = i
		}
		rel, err := e.perturb(d, ts)
		if err != nil {
			return err
		}
		if _, err := d.c.ReportBatchBinaryContext(ctx, d.user, rel); err != nil {
			return fmt.Errorf("device %d: preloading history: %w", d.user, err)
		}
		d.sent, d.next = rel, preloadSteps
		return nil
	})
}

// runAnalysis is analysis-mixed: an open-loop writer sends binary async
// batches at feedRate, each advancing one device's time by feedBatch
// steps, while closed-loop readers cycle through the query sequence.
// Each of the nproc request goroutines is a reader that first sends the
// writer's next batch whenever one has fallen due, so at most nproc
// requests are in flight and both the fixed write rate and busy cores
// hold. A lone reader beside a separate writer would leave about a
// third of the CPU idle between its round trips, and its rate would
// follow the host's scheduling delays more than the program.
func runAnalysis(ctx context.Context, e *env, dur time.Duration) (*outcome, error) {
	var queries, feedAcks, lateness samples
	var attempted, failed, releases atomic.Int64
	var latest, nextBatch, nextQuery atomic.Int64
	latest.Store(preloadSteps - 1)
	period := time.Second / feedRate
	batches := int64((dur + period - 1) / period) // the batches due inside the window
	w := e.openWindow()
	deadline := w.start.Add(dur)

	// sendDue sends the writer's next batch if it has fallen due, and
	// reports whether it did.
	sendDue := func() bool {
		i := nextBatch.Load()
		if i >= batches {
			return false
		}
		due := w.start.Add(time.Duration(i) * period)
		if time.Now().Before(due) || !nextBatch.CompareAndSwap(i, i+1) {
			return false
		}
		lateness.add(time.Since(due), 0)
		d := e.devs[e.in.feedOrder[int(i)%len(e.in.feedOrder)]]
		attempted.Add(1)
		if err := e.feed(ctx, d, &latest); err != nil {
			failed.Add(1)
		} else {
			releases.Add(feedBatch)
		}
		feedAcks.add(time.Since(due), 0)
		return true
	}

	var wg sync.WaitGroup
	for range e.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				if sendDue() {
					continue
				}
				if !time.Now().Before(deadline) {
					// Past the deadline every batch left is due; stop
					// once they are all sent.
					if nextBatch.Load() >= batches {
						return
					}
					continue
				}
				q := e.in.queries[int(nextQuery.Add(1)-1)%len(e.in.queries)]
				attempted.Add(1)
				start := time.Now()
				err := e.query(ctx, q, int(latest.Load()))
				queries.add(time.Since(start), 1)
				if err != nil {
					failed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	e.closeWindow(w)

	o := &outcome{
		win:       w,
		attempted: int(attempted.Load()),
		failed:    int(failed.Load()),
		releases:  int(releases.Load()),
		head:      summarizeWindow(queries.snapshot(), w, dur),
		lateness:  durations(lateness.snapshot()),
	}
	acks := summarizeWindow(feedAcks.snapshot(), w, dur)
	o.named.add("query_p50_ms", ms(o.head.p50), "ms", o.head.n)
	o.named.add("query_p99_ms", ms(o.head.p99), "ms", o.head.n)
	o.named.add("queries_per_s", o.head.rate, "1/s", o.head.n)
	o.named.add("feed_ack_p99_ms", ms(acks.p99), "ms", acks.n)
	return o, nil
}

// feed perturbs the device's next feedBatch timesteps and sends them
// as one binary async batch.
func (e *env) feed(ctx context.Context, d *device, latest *atomic.Int64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	ts := make([]int, feedBatch)
	for i := range ts {
		ts[i] = d.next + i
	}
	rel, err := e.perturb(d, ts)
	if err != nil {
		return err
	}
	ack, err := call(ctx, e, "reports", d.user, len(rel), func(ctx context.Context) (server.AsyncAck, error) {
		return d.c.ReportBatchBinaryAsyncContext(ctx, d.user, rel)
	})
	if err != nil {
		return err
	}
	if ack.SyncFallback {
		return fmt.Errorf("device %d: server applied an async batch synchronously", d.user)
	}
	d.sent = append(d.sent, rel...)
	d.next += feedBatch
	last := int64(ts[len(ts)-1])
	for cur := latest.Load(); last > cur && !latest.CompareAndSwap(cur, last); cur = latest.Load() {
	}
	return nil
}

// query runs one reader step against the latest timestep the writer has
// been acknowledged.
func (e *env) query(ctx context.Context, q query, latest int) error {
	c := e.admin
	var err error
	switch q.kind {
	case qDensityLatest:
		_, err = call(ctx, e, "density", -1, 0, func(ctx context.Context) ([]int, error) {
			return c.DensityContext(ctx, latest, blocks, blocks)
		})
	case qDensityOlder:
		_, err = call(ctx, e, "density", -1, 0, func(ctx context.Context) ([]int, error) {
			return c.DensityContext(ctx, q.olderT, blocks, blocks)
		})
	case qSeries:
		_, err = call(ctx, e, "series", -1, 0, func(ctx context.Context) ([][]int, error) {
			return c.DensitySeriesContext(ctx, q.olderT, q.olderT+seriesLen-1, blocks, blocks)
		})
	case qExposure:
		_, err = call(ctx, e, "exposure", -1, 0, func(ctx context.Context) ([]int, error) {
			return c.ExposureContext(ctx, latest-exposureLen+1, latest)
		})
	case qCensus:
		_, err = call(ctx, e, "census", -1, 0, func(ctx context.Context) (map[server.HealthCode]int, error) {
			return c.CensusContext(ctx, censusWindow, latest)
		})
	case qHealthCode:
		_, err = call(ctx, e, "healthcode", q.user, 0, func(ctx context.Context) (server.HealthCode, error) {
			return c.HealthCodeContext(ctx, q.user, 0, latest)
		})
	default:
		err = fmt.Errorf("unknown query kind %d", q.kind)
	}
	return err
}

// checkAnalysis waits for the ingest queue to drain, then compares the
// server's density at every timestep and its exposure series with the
// values recomputed from the releases sent, snapped to the grid.
func checkAnalysis(ctx context.Context, e *env, o *outcome) error {
	q := e.st.srv.Ingest()
	for q.Stats().Depth > 0 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
	grid := e.st.grid
	infected := e.in.cells[:analysisInfected]
	maxT := 0
	for _, d := range e.devs {
		maxT = max(maxT, d.next-1)
	}
	density := make([][]int, maxT+1)
	exposure := make([]int, maxT+1)
	for t := range density {
		density[t] = make([]int, grid.NumRegions(blocks, blocks))
	}
	for _, d := range e.devs {
		for _, r := range d.sent {
			cell := grid.Snap(geo.Pt(r.X, r.Y))
			density[r.T][grid.RegionOf(cell, blocks, blocks)]++
			if slices.Contains(infected, cell) {
				exposure[r.T]++
			}
		}
	}
	for t := 0; t <= maxT; t++ {
		got, err := e.admin.DensityContext(ctx, t, blocks, blocks)
		if err != nil {
			return fmt.Errorf("analysis-mixed: density at t %d: %w", t, err)
		}
		if !slices.Equal(got, density[t]) {
			return fmt.Errorf("analysis-mixed: density at t %d is %v, recomputed %v", t, got, density[t])
		}
	}
	got, err := e.admin.ExposureContext(ctx, 0, maxT)
	if err != nil {
		return fmt.Errorf("analysis-mixed: exposure: %w", err)
	}
	if !slices.Equal(got, exposure) {
		return fmt.Errorf("analysis-mixed: exposure is %v, recomputed %v", got, exposure)
	}
	return nil
}
