package main

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pglp/panda/internal/server/storage"
)

// Headers that link a client-side span to the server handler span it
// caused. They exist only in traced runs.
const (
	hdrSpan = "X-Bench-Span"
	hdrReq  = "X-Bench-Req"
	hdrUser = "X-Bench-User"
)

// span is one timed interval recorded at a layer boundary. Times are
// nanoseconds since the tracer's origin. n is the work the span did
// (records, releases, bytes), 0 when it has no natural count.
type span struct {
	id, parent, req uint64
	name            string
	start, end      int64
	n               int
}

// spanRef identifies an open span to its children.
type spanRef struct{ id, req uint64 }

// tracer records spans in memory while it is on (the timed window) and
// writes them out when the run ends. A nil *tracer is the untraced run:
// every method is then a no-op, so the untraced code path differs from
// the traced one only by these calls.
type tracer struct {
	origin time.Time
	on     atomic.Bool
	next   atomic.Uint64

	mu    sync.Mutex
	spans []span

	// In-flight handler spans that store calls are parented to: a sync
	// report handler per user (a device has one request in flight), a
	// health-code handler per user, and the scan queries by span id.
	fmu     sync.Mutex
	inserts map[int]spanRef
	reads   map[int]spanRef
	queries map[uint64]spanRef
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), inserts: map[int]spanRef{}, reads: map[int]spanRef{}, queries: map[uint64]spanRef{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// openSpan is a span in progress; a nil *openSpan records nothing.
type openSpan struct {
	t *tracer
	s span
}

// open starts a span under parent (a zero parent starts a new request).
// It returns nil when tracing is off.
func (t *tracer) open(parent spanRef, name string) *openSpan {
	if t == nil || !t.on.Load() {
		return nil
	}
	id := t.next.Add(1)
	req := parent.req
	if req == 0 {
		req = id
	}
	return &openSpan{t: t, s: span{id: id, parent: parent.id, req: req, name: name, start: t.now()}}
}

func (o *openSpan) ref() spanRef {
	if o == nil {
		return spanRef{}
	}
	return spanRef{id: o.s.id, req: o.s.req}
}

// close ends the span with its work count and keeps it.
func (o *openSpan) close(n int) {
	if o == nil {
		return
	}
	o.s.end = o.t.now()
	o.s.n = n
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
}

// ctxSpan is what a client-side span hands to the RoundTripper through
// the request context.
type ctxSpan struct {
	ref  spanRef
	user int
}

type ctxKey struct{}

// withSpan attaches the span (and the device's user) to ctx.
func withSpan(ctx context.Context, o *openSpan, user int) context.Context {
	if o == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, ctxSpan{ref: o.ref(), user: user})
}

// route names the /v2 endpoint of a path, the suffix of the http.* and
// server.* span names.
func route(path string) string {
	switch path {
	case "/v2/density/series":
		return "series"
	default:
		return strings.TrimPrefix(path, "/v2/")
	}
}

// scanRoutes are the analytics queries whose store scans are parented
// to the query's handler span when it is the only one in flight.
var scanRoutes = map[string]bool{"density": true, "series": true, "exposure": true, "census": true}

// traceTransport records a span per HTTP round trip and tells the
// server handler which span it is a child of.
type traceTransport struct {
	base http.RoundTripper
	t    *tracer
}

func (tt *traceTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	cs, _ := req.Context().Value(ctxKey{}).(ctxSpan)
	sp := tt.t.open(cs.ref, "http."+route(req.URL.Path))
	if sp == nil {
		return tt.base.RoundTrip(req)
	}
	req = req.Clone(req.Context())
	req.Header.Set(hdrSpan, strconv.FormatUint(sp.s.id, 10))
	req.Header.Set(hdrReq, strconv.FormatUint(sp.s.req, 10))
	if cs.ref.id != 0 {
		req.Header.Set(hdrUser, strconv.Itoa(cs.user))
	}
	resp, err := tt.base.RoundTrip(req)
	sp.close(0)
	return resp, err
}

// countingWriter counts the response body bytes a handler writes.
type countingWriter struct {
	http.ResponseWriter
	n int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += n
	return n, err
}

// handler wraps the server's handler with a span per request, parented
// to the client round trip named in the request headers.
func (t *tracer) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseUint(r.Header.Get(hdrSpan), 10, 64)
		req, _ := strconv.ParseUint(r.Header.Get(hdrReq), 10, 64)
		rt := route(r.URL.Path)
		sp := t.open(spanRef{id: parent, req: req}, "server."+rt)
		if sp == nil {
			next.ServeHTTP(w, r)
			return
		}
		user, uerr := strconv.Atoi(r.Header.Get(hdrUser))
		var reg map[int]spanRef
		switch {
		case uerr == nil && rt == "reports" && r.URL.Query().Get("mode") != "async":
			reg = t.inserts
		case uerr == nil && rt == "healthcode":
			reg = t.reads
		}
		t.fmu.Lock()
		if reg != nil {
			reg[user] = sp.ref()
		}
		if scanRoutes[rt] {
			t.queries[sp.s.id] = sp.ref()
		}
		t.fmu.Unlock()

		cw := &countingWriter{ResponseWriter: w}
		next.ServeHTTP(cw, r)

		t.fmu.Lock()
		if reg != nil {
			delete(reg, user)
		}
		if scanRoutes[rt] {
			delete(t.queries, sp.s.id)
		}
		t.fmu.Unlock()
		sp.close(cw.n)
	})
}

// parentOf returns the in-flight handler span a store call belongs to:
// the user's entry in reg, else the scan query in flight if there is
// exactly one, else none. Store calls carry no context, so with several
// scan queries in flight a scan cannot be told apart; it stays
// unparented (and in its query's self time) rather than be guessed.
func (t *tracer) parentOf(reg map[int]spanRef, user int, orQuery bool) spanRef {
	if !t.on.Load() {
		return spanRef{}
	}
	t.fmu.Lock()
	defer t.fmu.Unlock()
	if ref, ok := reg[user]; ok {
		return ref
	}
	if orQuery && len(t.queries) == 1 {
		for _, ref := range t.queries {
			return ref
		}
	}
	return spanRef{}
}

// tracedStore is the Store handed to server.NewDBOn in the traced run.
// It records a span per call on the layer boundary and otherwise
// forwards to the WAL: the embedded Durable forwards Sync, Err,
// CompactErr, Close and the cheap reads, and NumShards is forwarded so
// the ingest queue keeps its stripe pinning.
type tracedStore struct {
	storage.Durable
	t *tracer
}

// NumShards forwards the backend's shard count.
func (s *tracedStore) NumShards() int {
	if sh, ok := s.Durable.(interface{ NumShards() int }); ok {
		return sh.NumShards()
	}
	return 0
}

func (s *tracedStore) InsertBatch(recs []storage.Record) int {
	var parent spanRef
	if len(recs) > 0 {
		parent = s.t.parentOf(s.t.inserts, recs[0].User, false)
	}
	sp := s.t.open(parent, "storage.insert_batch")
	n := len(recs)
	added := s.Durable.InsertBatch(recs)
	sp.close(n)
	return added
}

func (s *tracedStore) ScanRange(t0, t1 int, fn func(storage.Record) bool) {
	sp := s.t.open(s.t.parentOf(nil, 0, true), "storage.scan_range")
	n := 0
	s.Durable.ScanRange(t0, t1, func(r storage.Record) bool {
		n++
		return fn(r)
	})
	sp.close(n)
}

// UserRecords is spanned only under a per-user handler (a health
// code): the census reads every user's records inside one query, and a
// span per user there would cost more than the reads it measures, so
// that work stays in the census handler's self time.
func (s *tracedStore) UserRecords(user int) []storage.Record {
	parent := s.t.parentOf(s.t.reads, user, false)
	if parent.id == 0 {
		return s.Durable.UserRecords(user)
	}
	sp := s.t.open(parent, "storage.user_records")
	out := s.Durable.UserRecords(user)
	sp.close(len(out))
	return out
}

func (s *tracedStore) Users() []int {
	sp := s.t.open(s.t.parentOf(nil, 0, true), "storage.users")
	out := s.Durable.Users()
	sp.close(len(out))
	return out
}

// write dumps the spans as tab-separated lines (id, parent, request,
// name, start ns, end ns, n) to path.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	t.mu.Lock()
	for _, s := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\t%d\n", s.id, s.parent, s.req, s.name, s.start, s.end, s.n)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanIndex groups recorded spans for the per-layer analysis.
type spanIndex struct {
	byName   map[string][]int
	children map[uint64][]int
	spans    []span
}

func (t *tracer) index() *spanIndex {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	ix := &spanIndex{byName: map[string][]int{}, children: map[uint64][]int{}, spans: spans}
	for i, s := range spans {
		ix.byName[s.name] = append(ix.byName[s.name], i)
		if s.parent != 0 {
			ix.children[s.parent] = append(ix.children[s.parent], i)
		}
	}
	return ix
}

// self is a span's duration minus the part of its interval its children
// cover (children clipped to the parent, overlaps counted once).
func (ix *spanIndex) self(i int) time.Duration {
	s := ix.spans[i]
	kids := ix.children[s.id]
	if len(kids) == 0 {
		return time.Duration(s.end - s.start)
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(ix.spans[k].start, s.start), min(ix.spans[k].end, s.end)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	covered, curA, curB := int64(0), int64(-1), int64(-1)
	for _, v := range iv {
		if v[0] > curB {
			covered += curB - curA
			curA, curB = v[0], v[1]
		} else if v[1] > curB {
			curB = v[1]
		}
	}
	covered += curB - curA
	return time.Duration(s.end - s.start - covered)
}

func (ix *spanIndex) dur(i int) time.Duration {
	return time.Duration(ix.spans[i].end - ix.spans[i].start)
}

// named returns the indexes of the spans called name.
func (ix *spanIndex) named(name string) []int { return ix.byName[name] }

// selfTimes and durations return the self times and durations of the
// spans at idx.
func (ix *spanIndex) selfTimes(idx []int) []time.Duration {
	out := make([]time.Duration, len(idx))
	for j, i := range idx {
		out[j] = ix.self(i)
	}
	return out
}

func (ix *spanIndex) durations(idx []int) []time.Duration {
	out := make([]time.Duration, len(idx))
	for j, i := range idx {
		out[j] = ix.dur(i)
	}
	return out
}
