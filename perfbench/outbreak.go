package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pglp/panda/internal/geo"
	"github.com/pglp/panda/internal/server"
	"github.com/pglp/panda/internal/server/wire"
)

const (
	// historyLen is how many timesteps each device has reported before
	// the outbreak and re-sends in every wave.
	historyLen = 10
	// cellsPerWave is how many of the plan's hotspot cells a wave
	// marks infected.
	cellsPerWave = 2
)

// setupOutbreak warms the devices and reports every device's history
// under the baseline policy.
func setupOutbreak(ctx context.Context, e *env) error {
	if err := e.warm(ctx); err != nil {
		return err
	}
	return e.forDevices(ctx, func(d *device) error {
		return e.resend(ctx, d)
	})
}

// resend perturbs the device's history under its current mechanism and
// reports it, replacing what the server held.
func (e *env) resend(ctx context.Context, d *device) error {
	ts := make([]int, historyLen)
	for i := range ts {
		ts[i] = i
	}
	rel, err := e.perturb(d, ts)
	if err != nil {
		return err
	}
	if _, err := call(ctx, e, "reports", d.user, len(rel), func(ctx context.Context) (wire.BatchReportResponse, error) {
		return d.c.ReportBatchContext(ctx, d.user, rel)
	}); err != nil {
		return fmt.Errorf("device %d: reporting history: %w", d.user, err)
	}
	d.sent = rel
	return nil
}

// runOutbreak is outbreak-waves: each wave marks the plan's next
// hotspot cells infected, then every device renegotiates (policy fetch,
// graph decode, mechanism build), re-sends its history perturbed under
// the new graph and fetches its health code. Waves start until the
// window has lasted dur, and the last one runs to its end.
func runOutbreak(ctx context.Context, e *env, dur time.Duration) (*outcome, error) {
	o := &outcome{}
	var waveRenegs [][]sample
	var mu sync.Mutex
	var attempted, failed, mismatches, releases atomic.Int64
	w := e.openWindow()
	for k := cellsPerWave; k <= len(e.in.cells); k += cellsPerWave {
		if len(o.waves) > 0 && time.Since(w.start) >= dur {
			break
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		waveStart := time.Now()
		var renegs samples
		infected := e.in.cells[:k]
		attempted.Add(1)
		if _, err := call(ctx, e, "infected", -1, cellsPerWave, func(ctx context.Context) ([]int, error) {
			return e.admin.MarkInfectedContext(ctx, infected[k-cellsPerWave:])
		}); err != nil {
			failed.Add(1)
		}
		err := e.forDevices(ctx, func(d *device) error {
			attempted.Add(3)
			start := time.Now()
			took, err := e.negotiate(ctx, d)
			if err != nil {
				failed.Add(3)
				return nil
			}
			renegs.add(took, 1)
			mu.Lock()
			o.renegs = append(o.renegs, interval{d.user, start, start.Add(took)})
			mu.Unlock()
			if err := e.resend(ctx, d); err != nil {
				failed.Add(2)
				return nil
			}
			releases.Add(historyLen)
			code, err := call(ctx, e, "healthcode", d.user, 0, func(ctx context.Context) (server.HealthCode, error) {
				return d.c.HealthCodeContext(ctx, d.user, 0, -1)
			})
			if err != nil {
				failed.Add(1)
				return nil
			}
			if code != healthCode(e.st.grid, d.sent, infected) {
				mismatches.Add(1)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		o.waves = append(o.waves, time.Since(waveStart))
		waveRenegs = append(waveRenegs, renegs.snapshot())
	}
	e.closeWindow(w)
	o.win = w
	o.attempted, o.failed = int(attempted.Load()), int(failed.Load())
	o.healthMismatches = int(mismatches.Load())
	o.releases = int(releases.Load())
	o.head = summarize(waveRenegs, 0)
	// The wave time is the lower quartile over waves, like every
	// sub-window figure (see summary).
	waveS := quantile(o.waves, 0.25).Seconds()
	if waveS > 0 {
		o.head.rate = float64(len(e.devs)) / waveS
	}
	o.named.add("reneg_p50_ms", ms(o.head.p50), "ms", o.head.n)
	o.named.add("reneg_p99_ms", ms(o.head.p99), "ms", o.head.n)
	o.named.add("wave_s", waveS, "s", len(o.waves))
	return o, nil
}

// healthCode derives a device's code from the releases it sent: the
// number of released points that snap to an infected cell.
func healthCode(grid *geo.Grid, sent []wire.Release, infected []int) server.HealthCode {
	inf := map[int]bool{}
	for _, c := range infected {
		inf[c] = true
	}
	visits := 0
	for _, r := range sent {
		if inf[grid.Snap(geo.Pt(r.X, r.Y))] {
			visits++
		}
	}
	switch {
	case visits >= 2:
		return server.CodeRed
	case visits == 1:
		return server.CodeYellow
	default:
		return server.CodeGreen
	}
}

// checkOutbreak audits the stored history against the policy graphs:
// every stored point is the one the device sent last, under the
// server's current version, and a point is exact only at a cell the
// graph of its version isolates. Every health code must have matched.
func checkOutbreak(_ context.Context, e *env, o *outcome) error {
	if len(o.waves) == 0 {
		return fmt.Errorf("outbreak-waves: no wave ran")
	}
	if o.healthMismatches != 0 {
		return fmt.Errorf("outbreak-waves: %d health codes differ from the ones derived from the sent releases", o.healthMismatches)
	}
	violations := 0
	for _, d := range e.devs {
		if v := e.st.mgr.Version(d.user); d.version != v {
			return fmt.Errorf("outbreak-waves: device %d ends on policy v%d, server has v%d", d.user, d.version, v)
		}
		recs := e.st.db.UserRecords(d.user)
		if len(recs) != len(d.sent) {
			return fmt.Errorf("outbreak-waves: device %d has %d stored records, sent %d", d.user, len(recs), len(d.sent))
		}
		for i, r := range recs {
			s := d.sent[i]
			if r.T != s.T || r.Point.X != s.X || r.Point.Y != s.Y || r.PolicyVersion != d.version {
				return fmt.Errorf("outbreak-waves: device %d stored (t %d, v%d) differs from its last re-send (t %d, v%d)",
					d.user, r.T, r.PolicyVersion, s.T, d.version)
			}
			g, ok := e.graphs[r.PolicyVersion]
			if !ok {
				return fmt.Errorf("outbreak-waves: record under unknown policy v%d", r.PolicyVersion)
			}
			truth := d.cell(r.T)
			if geo.AlmostEqual(r.Point, e.st.grid.Center(truth), 1e-9) && g.Degree(truth) > 0 {
				violations++
			}
		}
	}
	if violations != 0 {
		return fmt.Errorf("outbreak-waves: policy audit found %d exact disclosures of protected cells", violations)
	}
	return nil
}
