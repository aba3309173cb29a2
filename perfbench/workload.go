package main

import (
	"context"
	"runtime"
	"runtime/debug"
	"time"

	"github.com/pglp/panda/internal/server/analytics"
	"github.com/pglp/panda/internal/server/ingest"
	"github.com/pglp/panda/internal/server/storage/wal"
)

// workload is one traffic mix: its set-up after the devices are warm,
// its timed window, and the check of its outputs.
type workload struct {
	name  string
	setup func(ctx context.Context, e *env) error
	run   func(ctx context.Context, e *env, dur time.Duration) (*outcome, error)
	check func(ctx context.Context, e *env, o *outcome) error
}

var workloads = []workload{
	{"monitor-steady", setupMonitor, runMonitor, checkMonitor},
	{"outbreak-waves", setupOutbreak, runOutbreak, checkOutbreak},
	{"analysis-mixed", setupAnalysis, runAnalysis, checkAnalysis},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// interval is one device's renegotiation, kept for the timing-window
// test.
type interval struct {
	user       int
	start, end time.Time
}

// outcome is what a timed window measured.
type outcome struct {
	win               *window
	attempted, failed int
	// head is the headline operation: ops_per_s, op_p50_ms, op_p99_ms.
	head summary
	// named holds the workload's metrics under their own names.
	named metrics
	// releases is how many releases the window sent (the base of
	// runtime.allocs_per_release).
	releases int

	accepted, replaced int             // monitor-steady
	waves              []time.Duration // outbreak-waves
	renegs             []interval      // outbreak-waves
	healthMismatches   int             // outbreak-waves
	lateness           []time.Duration // analysis-mixed writer
}

// subWindows is how many equal parts the closed- and open-loop windows
// are summarized in (outbreak-waves uses its waves).
const subWindows = 10

// summarizeWindow summarizes samples over the window's sub-windows.
func summarizeWindow(ss []sample, w *window, dur time.Duration) summary {
	return summarize(split(ss, w.start, dur, subWindows), dur.Seconds()/subWindows)
}

// window brackets the timed part of a run: tracing is on inside it,
// and the counters of the runtime and the server are read at its ends.
type window struct {
	start, end time.Time
	ms0, ms1   runtime.MemStats
	an0, an1   analytics.Stats
	in0, in1   ingest.Stats
	wal1       wal.Stats
	// rssMB is the process's RSS when the window opens, after a full
	// collection: the resident memory of the warmed stack and devices.
	rssMB  float64
	rssErr error
}

func (e *env) openWindow() *window {
	w := &window{}
	// The collection also keeps set-up garbage from being collected
	// inside the window.
	debug.FreeOSMemory()
	w.rssMB, w.rssErr = rssMB()
	runtime.ReadMemStats(&w.ms0)
	w.an0 = e.st.db.AnalyticsStats()
	w.in0 = e.st.srv.Ingest().Stats()
	if e.tr != nil {
		e.tr.on.Store(true)
	}
	w.start = time.Now()
	return w
}

func (e *env) closeWindow(w *window) {
	w.end = time.Now()
	if e.tr != nil {
		e.tr.on.Store(false)
	}
	runtime.ReadMemStats(&w.ms1)
	w.an1 = e.st.db.AnalyticsStats()
	w.in1 = e.st.srv.Ingest().Stats()
	w.wal1 = e.st.wal.Stats()
}
