package main

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pglp/panda/internal/geo"
	"github.com/pglp/panda/internal/mechanism"
	"github.com/pglp/panda/internal/policy"
	"github.com/pglp/panda/internal/policygraph"
	"github.com/pglp/panda/internal/server"
	"github.com/pglp/panda/internal/server/storage"
	"github.com/pglp/panda/internal/server/storage/backend"
	"github.com/pglp/panda/internal/server/storage/wal"
	"github.com/pglp/panda/internal/server/wire"
)

// The server configuration every workload runs against: the stack of
// `panda-server -data-dir <dir> -rows 32 -cols 32 -async-ingest` with
// its defaults (baseline policy, ε = 1, shards = GOMAXPROCS, WAL
// backend with buffered sync).
const (
	gridRows = 32
	gridCols = 32
	epsilon  = 1.0
)

// stack is one in-process panda-server behind a loopback listener,
// plus the HTTP client the benchmark's devices share.
type stack struct {
	dir    string
	grid   *geo.Grid
	wal    *wal.Store
	db     *server.DB
	mgr    *policy.Manager
	srv    *server.Server
	hs     *http.Server
	served chan error
	base   string
	hc     *http.Client
	tr     *http.Transport
}

// newStack builds the server over a fresh WAL directory. With a tracer
// the store, the handler and the client transport are wrapped; nothing
// else differs.
func newStack(dir string, workers int, t *tracer) (*stack, error) {
	grid, err := geo.NewGrid(gridRows, gridCols, 1.0)
	if err != nil {
		return nil, err
	}
	mgr, err := policy.NewManager(grid, policy.Baseline(grid), epsilon)
	if err != nil {
		return nil, err
	}
	durable, err := backend.Open(backend.WAL, dir, backend.Options{Shards: runtime.GOMAXPROCS(0)})
	if err != nil {
		return nil, err
	}
	ws, ok := durable.(*wal.Store)
	if !ok {
		durable.Close()
		return nil, fmt.Errorf("backend %s opened a %T, want *wal.Store", backend.WAL, durable)
	}
	var store storage.Store = durable
	if t != nil {
		store = &tracedStore{Durable: durable, t: t}
	}
	s := &stack{dir: dir, grid: grid, wal: ws, mgr: mgr}
	if s.db, err = server.NewDBOn(grid, store); err == nil {
		s.srv, err = server.NewServerOpts(s.db, mgr, server.Options{AsyncIngest: true})
	}
	if err != nil {
		durable.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		durable.Close()
		return nil, err
	}
	var h http.Handler = s.srv.Handler()
	if t != nil {
		h = t.handler(h)
	}
	s.hs = &http.Server{Handler: h}
	s.served = make(chan error, 1)
	go func() { s.served <- s.hs.Serve(ln) }()
	s.base = "http://" + ln.Addr().String()

	s.tr = &http.Transport{MaxConnsPerHost: workers, MaxIdleConnsPerHost: workers, MaxIdleConns: workers}
	var rt http.RoundTripper = s.tr
	if t != nil {
		rt = &traceTransport{base: s.tr, t: t}
	}
	s.hc = &http.Client{Transport: rt}
	return s, nil
}

// wrapTransport lets a test observe every request the devices send.
func (s *stack) wrapTransport(wrap func(http.RoundTripper) http.RoundTripper) {
	s.hc.Transport = wrap(s.hc.Transport)
}

// client is a new device client: no retries, so every refusal surfaces
// as a failed operation.
func (s *stack) client() *server.Client {
	return server.NewClient(s.base, s.hc, server.WithRetry(server.RetryPolicy{MaxAttempts: 1}))
}

// close shuts the server down, drains the ingest queue, closes the WAL
// and removes its directory.
func (s *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if derr := s.srv.DrainIngest(ctx); derr != nil && err == nil {
		err = derr
	}
	if cerr := s.wal.Close(); cerr != nil && err == nil {
		err = cerr
	}
	s.tr.CloseIdleConnections()
	if rerr := os.RemoveAll(s.dir); rerr != nil && err == nil {
		err = rerr
	}
	return err
}

// dirBytes is the total size of the files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		fi, err := d.Info()
		if err != nil {
			return err
		}
		n += fi.Size()
		return nil
	})
	return n, err
}

// device is one simulated phone: its own client, its own decoded
// policy graph and its own mechanism, never shared with another device.
type device struct {
	user    int
	c       *server.Client
	traj    []int
	rng     *rand.Rand
	mech    mechanism.Mechanism
	version int
	// next is the next timestep the device reports.
	next int
	// sent holds the releases kept for the output checks, by workload.
	sent []wire.Release
	// mu serializes the analysis writer's sends of one device.
	mu sync.Mutex
}

func (d *device) cell(t int) int { return d.traj[t%len(d.traj)] }

// env is a set-up workload: the stack, the warmed devices and the
// tracer (nil in the untraced run).
type env struct {
	in      *inputs
	st      *stack
	devs    []*device
	admin   *server.Client
	tr      *tracer
	workers int

	// graphs keeps one graph per policy version for the audit; devices
	// never read it.
	gmu    sync.Mutex
	graphs map[int]*policygraph.Graph
}

// newEnv builds the stack and one device per trajectory; warm then
// negotiates their policies.
func newEnv(in *inputs, dir string, workers int, t *tracer) (*env, error) {
	st, err := newStack(dir, workers, t)
	if err != nil {
		return nil, err
	}
	e := &env{in: in, st: st, admin: st.client(), tr: t, workers: workers, graphs: map[int]*policygraph.Graph{}}
	e.devs = make([]*device, len(in.traj))
	for u := range e.devs {
		e.devs[u] = &device{
			user: u,
			c:    st.client(),
			traj: in.traj[u],
			rng:  rand.New(rand.NewPCG(in.seed, uint64(u)<<1|1)),
		}
	}
	return e, nil
}

// warm negotiates every device's policy with the worker pool.
func (e *env) warm(ctx context.Context) error {
	return e.forDevices(ctx, func(d *device) error {
		_, err := e.negotiate(ctx, d)
		return err
	})
}

// forDevices runs fn once per device over the worker pool, stopping at
// the first error.
func (e *env) forDevices(ctx context.Context, fn func(d *device) error) error {
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, e.workers)
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	for w := 0; w < e.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= len(e.devs) {
					return
				}
				if err := fn(e.devs[i]); err != nil {
					errs <- err
					cancel()
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return err
	}
	return ctx.Err()
}

// negotiate fetches the device's policy, decodes it and builds its
// mechanism, returning the time from fetch start to mechanism ready.
func (e *env) negotiate(ctx context.Context, d *device) (time.Duration, error) {
	start := time.Now()
	sp := e.tr.open(spanRef{}, "client.policy")
	cp, err := d.c.PolicyContext(withSpan(ctx, sp, d.user), d.user)
	sp.close(0)
	if err != nil {
		return 0, fmt.Errorf("device %d: fetching policy: %w", d.user, err)
	}
	if cp.Graph == nil {
		return 0, fmt.Errorf("device %d: policy v%d has no graph", d.user, cp.Version)
	}
	ms := e.tr.open(spanRef{}, "mechanism.new")
	m, err := mechanism.New(mechanism.KindGLM, e.st.grid, cp.Graph, cp.Epsilon)
	ms.close(1)
	if err != nil {
		return 0, fmt.Errorf("device %d: building mechanism: %w", d.user, err)
	}
	took := time.Since(start)
	d.mech, d.version = m, cp.Version
	e.gmu.Lock()
	if _, ok := e.graphs[cp.Version]; !ok {
		e.graphs[cp.Version] = cp.Graph
	}
	e.gmu.Unlock()
	return took, nil
}

// perturb releases the device's true cells at timesteps ts through its
// mechanism.
func (e *env) perturb(d *device, ts []int) ([]wire.Release, error) {
	sp := e.tr.open(spanRef{}, "mechanism.release")
	defer sp.close(len(ts))
	rel := make([]wire.Release, len(ts))
	for i, t := range ts {
		z, err := d.mech.Release(d.rng, d.cell(t))
		if err != nil {
			return nil, fmt.Errorf("device %d: release at t %d: %w", d.user, t, err)
		}
		rel[i] = wire.Release{T: t, X: z.X, Y: z.Y}
	}
	return rel, nil
}

// call wraps one server.Client call in a client.<rt> span.
func call[T any](ctx context.Context, e *env, rt string, user, n int, f func(context.Context) (T, error)) (T, error) {
	sp := e.tr.open(spanRef{}, "client."+rt)
	v, err := f(withSpan(ctx, sp, user))
	sp.close(n)
	return v, err
}

func (e *env) close() error { return e.st.close() }
