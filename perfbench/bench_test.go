package main

import (
	"context"
	"net/http"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"

	"github.com/pglp/panda/internal/server/storage"
)

// toyDevices is the population of the toy-size runs.
const toyDevices = 40

func TestInputDigestFollowsSeed(t *testing.T) {
	digest := func(seed uint64) string {
		in, err := genInputs(seed, toyDevices)
		if err != nil {
			t.Fatal(err)
		}
		return in.digest()
	}
	a, b, c := digest(7), digest(7), digest(8)
	if a != b {
		t.Errorf("same seed gave digests %s and %s", a, b)
	}
	if a == c {
		t.Errorf("seeds 7 and 8 gave the same digest %s", a)
	}
}

// policyGET is one GET /v2/policy seen by the counting transport.
type policyGET struct {
	user int
	at   time.Time
}

// countingTransport records every policy fetch the devices send.
type countingTransport struct {
	base http.RoundTripper
	mu   sync.Mutex
	gets []policyGET
}

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Method == http.MethodGet && req.URL.Path == "/v2/policy" {
		u, _ := strconv.Atoi(req.URL.Query().Get("user"))
		c.mu.Lock()
		c.gets = append(c.gets, policyGET{u, time.Now()})
		c.mu.Unlock()
	}
	return c.base.RoundTrip(req)
}

// runToy sets a workload up at toy size, runs a one-second window and
// checks its outputs.
func runToy(t *testing.T, w workload, tr *tracer) (*outcome, *countingTransport) {
	t.Helper()
	in, err := genInputs(3, toyDevices)
	if err != nil {
		t.Fatal(err)
	}
	e, err := newEnv(in, filepath.Join(t.TempDir(), "data"), 2, tr)
	if err != nil {
		t.Fatal(err)
	}
	ct := &countingTransport{}
	e.st.wrapTransport(func(base http.RoundTripper) http.RoundTripper {
		ct.base = base
		return ct
	})
	ctx := context.Background()
	if err := w.setup(ctx, e); err != nil {
		t.Fatal(err)
	}
	o, err := w.run(ctx, e, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.check(ctx, e, o); err != nil {
		t.Errorf("%s output check: %v", w.name, err)
	}
	if err := e.close(); err != nil {
		t.Fatal(err)
	}
	if o.attempted == 0 || o.failed != 0 {
		t.Errorf("%s: %d of %d operations failed", w.name, o.failed, o.attempted)
	}
	return o, ct
}

// TestTimingWindows keeps policy fetches out of the windows that must
// not contain them, and pins each outbreak renegotiation to exactly one
// fetch: the warmup-inside-the-clock bug cannot come back.
func TestTimingWindows(t *testing.T) {
	for _, name := range []string{"monitor-steady", "analysis-mixed"} {
		w, _ := lookupWorkload(name)
		o, ct := runToy(t, w, nil)
		inWindow := 0
		for _, g := range ct.gets {
			if !g.at.Before(o.win.start) && !g.at.After(o.win.end) {
				inWindow++
			}
		}
		if inWindow != 0 {
			t.Errorf("%s: %d policy GETs inside the timed window, want 0", name, inWindow)
		}
		if len(ct.gets) < toyDevices {
			t.Errorf("%s: %d policy GETs in set-up, want one per device (%d)", name, len(ct.gets), toyDevices)
		}
	}

	w, _ := lookupWorkload("outbreak-waves")
	o, ct := runToy(t, w, nil)
	if len(o.renegs) != toyDevices*len(o.waves) {
		t.Fatalf("%d renegotiations over %d waves, want %d", len(o.renegs), len(o.waves), toyDevices*len(o.waves))
	}
	inWindow := 0
	for _, g := range ct.gets {
		if !g.at.Before(o.win.start) && !g.at.After(o.win.end) {
			inWindow++
		}
	}
	if inWindow != len(o.renegs) {
		t.Errorf("%d policy GETs inside the window, want one per renegotiation (%d)", inWindow, len(o.renegs))
	}
	for _, r := range o.renegs {
		n := 0
		for _, g := range ct.gets {
			if g.user == r.user && !g.at.Before(r.start) && !g.at.After(r.end) {
				n++
			}
		}
		if n != 1 {
			t.Errorf("device %d renegotiation covers %d policy GETs, want 1", r.user, n)
		}
	}
}

// TestTracedStackMatches checks that tracing wraps the stack without
// changing its configuration: the same shard count reaches the ingest
// queue, and the store still offers the durable methods.
func TestTracedStackMatches(t *testing.T) {
	open := func(tr *tracer) *stack {
		s, err := newStack(filepath.Join(t.TempDir(), "data"), 2, tr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.close() })
		return s
	}
	plain, traced := open(nil), open(newTracer())
	shards := func(s *stack) int {
		sh, ok := s.db.Store().(interface{ NumShards() int })
		if !ok {
			t.Fatalf("store %T does not expose NumShards", s.db.Store())
		}
		return sh.NumShards()
	}
	if a, b := shards(plain), shards(traced); a != b || a < 1 {
		t.Errorf("shards: untraced %d, traced %d", a, b)
	}
	if _, ok := traced.db.Store().(storage.Durable); !ok {
		t.Errorf("traced store %T is not a storage.Durable", traced.db.Store())
	}
	a, b := plain.srv.Ingest().Stats(), traced.srv.Ingest().Stats()
	if a.Workers != b.Workers || a.Capacity != b.Capacity || a.UserCap != b.UserCap {
		t.Errorf("ingest config: untraced %+v, traced %+v", a, b)
	}
}

// TestTraceLinksLayers checks the span tree of a traced outbreak: each
// policy fetch is client -> http -> server, and every synchronous store
// insert hangs under its report handler.
func TestTraceLinksLayers(t *testing.T) {
	w, _ := lookupWorkload("outbreak-waves")
	tr := newTracer()
	runToy(t, w, tr)
	ix := tr.index()
	byID := map[uint64]span{}
	for _, s := range ix.spans {
		byID[s.id] = s
	}
	want := map[string]string{
		"http.policy":          "client.policy",
		"server.policy":        "http.policy",
		"http.reports":         "client.reports",
		"server.reports":       "http.reports",
		"storage.insert_batch": "server.reports",
		"server.healthcode":    "http.healthcode",
		"storage.user_records": "server.healthcode",
	}
	for name, parent := range want {
		idx := ix.named(name)
		if len(idx) == 0 {
			t.Errorf("no %s spans", name)
		}
		for _, i := range idx {
			if got := byID[ix.spans[i].parent].name; got != parent {
				t.Errorf("%s span parented to %q, want %q", name, got, parent)
				break
			}
		}
	}
}
