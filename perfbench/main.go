// Command pandabench is the PANDA benchmark: it runs one named workload
// against an in-process panda-server stack (WAL backend, async ingest,
// 32x32 grid, baseline policy, ε = 1) driven through loopback HTTP by
// 1000 simulated devices, checks the outputs, and prints every metric
// by name with its unit. The last line of its output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage (from the repository root, through the build wrapper):
//
//	bash perfbench/run.sh --workload monitor-steady --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1
// the run is made twice, untraced and then traced, and the metrics are
// the per-layer ones. See perfbench/README.md.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

const (
	// setupRuns is how many times an untraced run sets up; setup_s is
	// their median and the last set-up is the one measured.
	setupRuns = 3
	// runDeadline bounds a whole run, so it ends within the three
	// minutes a run may take.
	runDeadline = 170 * time.Second
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pandabench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: monitor-steady, outbreak-waves or analysis-mixed")
	seed := fs.Uint64("seed", 1, "seed of the generated inputs")
	seconds := fs.Int("seconds", 20, "length of the timed window in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	out := fs.String("out", ".bench_build", "directory for WAL data and the span dump")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "pandabench: need --workload (monitor-steady|outbreak-waves|analysis-mixed), --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	res, err := bench(ctx, w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *out, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "pandabench: %v\n", err)
		return 1
	}
	if err := res.write(stdout); err != nil {
		fmt.Fprintf(stderr, "pandabench: %v\n", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// measured is one set-up plus timed window plus output check.
type measured struct {
	o        *outcome
	e2e      metrics
	counters metrics
	checkErr error
}

// bench runs the workload and assembles the result line. An output
// check that fails makes the result incorrect; any other failure is an
// error and prints no result.
func bench(ctx context.Context, w workload, seed uint64, dur time.Duration, traced bool, out string, log io.Writer) (result, error) {
	in, err := genInputs(seed, devices)
	if err != nil {
		return result{}, err
	}
	workers := runtime.GOMAXPROCS(0)
	fmt.Fprintf(log, "workload %s seed %d window %v workers %d devices %d inputs_digest %s\n",
		w.name, seed, dur, workers, devices, in.digest())

	setups := setupRuns
	if traced {
		setups = 1
	}
	base, err := measure(ctx, w, in, dur, out, workers, setups, nil)
	if err != nil {
		return result{}, err
	}
	report(log, "", base)
	res := result{
		Correct:   base.checkErr == nil,
		Attempted: base.o.attempted,
		Failed:    base.o.failed,
		Metrics:   map[string]metricValue{},
	}
	if !traced {
		for _, x := range base.e2e.list {
			res.Metrics[x.name] = metricValue{x.value, x.unit}
		}
		return res, nil
	}

	tr := newTracer()
	tm, err := measure(ctx, w, in, dur, out, workers, 1, tr)
	if err != nil {
		return result{}, err
	}
	report(log, "traced ", tm)
	res.Correct = res.Correct && tm.checkErr == nil
	res.Attempted += tm.o.attempted
	res.Failed += tm.o.failed

	ix := tr.index()
	layers := spanMetrics(ix, tm.o, w.name, workers)
	layers.list = append(layers.list, base.counters.list...)
	addOverhead(&layers, base.e2e, tm.e2e)
	layers.print(log, "layer ")
	dump := filepath.Join(out, fmt.Sprintf("spans-%s-%d.tsv", w.name, seed))
	if err := tr.write(dump); err != nil {
		return result{}, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(log, "spans %d written to %s\n", len(ix.spans), dump)
	for _, x := range layers.list {
		res.Metrics[x.name] = metricValue{x.value, x.unit}
	}
	return res, nil
}

// measure sets the workload up `setups` times (timing each and keeping
// the last stack), runs its window and checks its outputs.
func measure(ctx context.Context, w workload, in *inputs, dur time.Duration, out string, workers, setups int, t *tracer) (*measured, error) {
	var setupS []float64
	var e *env
	for i := 0; i < setups; i++ {
		// Each set-up starts from a collected heap, so the garbage of an
		// earlier one does not slow it.
		debug.FreeOSMemory()
		start := time.Now()
		dir := filepath.Join(out, fmt.Sprintf("data-%d-%d", os.Getpid(), i))
		var err error
		if e, err = newEnv(in, dir, workers, t); err != nil {
			return nil, err
		}
		if err := w.setup(ctx, e); err != nil {
			return nil, errors.Join(fmt.Errorf("set-up: %w", err), e.close())
		}
		setupS = append(setupS, time.Since(start).Seconds())
		if i < setups-1 {
			if err := e.close(); err != nil {
				return nil, err
			}
		}
	}
	o, err := w.run(ctx, e, dur)
	if err != nil {
		return nil, errors.Join(err, e.close())
	}
	m := &measured{o: o, checkErr: w.check(ctx, e, o)}
	size, err := walBytes(e)
	if err != nil {
		return nil, errors.Join(err, e.close())
	}
	m.counters = counterMetrics(o, len(e.st.mgr.Users()), size)
	if err := e.close(); err != nil {
		return nil, err
	}
	if o.win.rssErr != nil {
		return nil, o.win.rssErr
	}
	addEndToEnd(&m.e2e, setupS, o)
	return m, nil
}

// addEndToEnd adds the end-to-end metrics of a measured run.
func addEndToEnd(m *metrics, setupS []float64, o *outcome) {
	m.add("setup_s", quantile(setupS, 0.5), "s", len(setupS))
	m.add("rss_warm_mb", o.win.rssMB, "MB", 0)
	m.add("ops_per_s", o.head.rate, "1/s", o.head.n)
	m.add("op_p50_ms", ms(o.head.p50), "ms", o.head.n)
	m.add("op_p99_ms", ms(o.head.p99), "ms", o.head.n)
}

// report prints a measured run: its checks, the workload's metrics
// under their own names, the error rate and the end-to-end metrics.
func report(log io.Writer, prefix string, m *measured) {
	if m.checkErr != nil {
		fmt.Fprintf(log, "%sCHECK FAILED: %v\n", prefix, m.checkErr)
	} else {
		fmt.Fprintf(log, "%scheck ok\n", prefix)
	}
	m.o.named.print(log, prefix)
	errRate := 0.0
	if m.o.attempted > 0 {
		errRate = float64(m.o.failed) / float64(m.o.attempted)
	}
	fmt.Fprintf(log, "%s%-40s %14.4f %-6s (n=%d)\n", prefix, "error_rate", errRate, "ratio", m.o.attempted)
	m.e2e.print(log, prefix)
}
