package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
)

// sample is one timed operation: when it completed, how long it took
// and how much work (releases, queries) it did.
type sample struct {
	at time.Time
	d  time.Duration
	n  int
}

// samples is a concurrency-safe sample set.
type samples struct {
	mu sync.Mutex
	s  []sample
}

func (s *samples) add(d time.Duration, n int) {
	at := time.Now()
	s.mu.Lock()
	s.s = append(s.s, sample{at, d, n})
	s.mu.Unlock()
}

func (s *samples) snapshot() []sample {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]sample(nil), s.s...)
}

// split groups samples into parts equal sub-windows of [start,
// start+dur) by completion time; samples past the end go to the last.
func split(ss []sample, start time.Time, dur time.Duration, parts int) [][]sample {
	out := make([][]sample, parts)
	for _, x := range ss {
		i := int(x.at.Sub(start) * time.Duration(parts) / dur)
		i = min(max(i, 0), parts-1)
		out[i] = append(out[i], x)
	}
	return out
}

func durations(ss []sample) []time.Duration {
	out := make([]time.Duration, len(ss))
	for i, x := range ss {
		out[i] = x.d
	}
	return out
}

// summary condenses a window's sub-windows: the lower quartile over
// sub-windows of each one's p50 and p99 latency, and the upper quartile
// of their work rates. On a shared host, interference from other
// tenants comes in bursts of seconds and only ever slows the program;
// taking the least-disturbed quarter of the sub-windows keeps the
// bursts out of the figures, while a slowdown of the program itself,
// present in most sub-windows, still shows.
type summary struct {
	p50, p99 time.Duration
	rate     float64
	n        int
}

// summarize summarizes groups of samples, each from a sub-window of
// the given length (rate is 0 when seconds is 0).
func summarize(groups [][]sample, seconds float64) summary {
	var p50s, p99s, rates []float64
	n := 0
	for _, g := range groups {
		ds := durations(g)
		p50s = append(p50s, float64(quantile(ds, 0.5)))
		p99s = append(p99s, float64(quantile(ds, 0.99)))
		work := 0
		for _, x := range g {
			work += x.n
		}
		if seconds > 0 {
			rates = append(rates, float64(work)/seconds)
		}
		n += len(g)
	}
	return summary{
		p50:  time.Duration(quantile(p50s, 0.25)),
		p99:  time.Duration(quantile(p99s, 0.25)),
		rate: quantile(rates, 0.75),
		n:    n,
	}
}

// quantile returns the nearest-rank q-quantile of xs, the zero value
// when xs is empty.
func quantile[T cmp.Ordered](xs []T, q float64) T {
	var zero T
	if len(xs) == 0 {
		return zero
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(q*float64(len(s))+0.5) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// metric is one named measurement with its unit. n is its sample count
// (0 for counts and ratios, which print without one).
type metric struct {
	name  string
	value float64
	unit  string
	n     int
}

// metrics keeps measurements in insertion order.
type metrics struct{ list []metric }

func (m *metrics) add(name string, value float64, unit string, n int) {
	m.list = append(m.list, metric{name, value, unit, n})
}

func (m *metrics) get(name string) (metric, bool) {
	for _, x := range m.list {
		if x.name == name {
			return x, true
		}
	}
	return metric{}, false
}

// print writes one human-readable line per metric.
func (m *metrics) print(w io.Writer, prefix string) {
	for _, x := range m.list {
		if x.n > 0 {
			fmt.Fprintf(w, "%s%-40s %14.4f %-6s (n=%d)\n", prefix, x.name, x.value, x.unit, x.n)
		} else {
			fmt.Fprintf(w, "%s%-40s %14.4f %s\n", prefix, x.name, x.value, x.unit)
		}
	}
}

// result is the final JSON line of a run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r result) write(w io.Writer) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// rssMB reads the process's current resident set size (VmRSS).
func rssMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmRSS %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmRSS line in /proc/self/status")
}
