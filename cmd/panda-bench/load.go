package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/pglp/panda/internal/cluster"
	"github.com/pglp/panda/internal/geo"
	"github.com/pglp/panda/internal/policy"
	"github.com/pglp/panda/internal/server"
	"github.com/pglp/panda/internal/server/storage/wal"
	"github.com/pglp/panda/internal/server/wire"
)

// loadConfig parameterizes the live-server load test (-load): /v2 batch
// ingestion across many concurrent users followed by the cached
// analytics queries, printing ingest rate and latency percentiles.
type loadConfig struct {
	url     string // target base URL; empty = in-process server
	users   int    // concurrent users (one goroutine each)
	steps   int    // releases per user
	batch   int    // releases per POST /v2/reports request
	queries int    // analytics queries per endpoint

	// Durability mode (in-process only): back the store with the WAL so
	// the run measures the ingest-rate cost of durable appends.
	durable bool
	dir     string // WAL directory; empty = a fresh temp dir
	fsync   bool   // fsync every append (wal.SyncAlways) vs buffered
	stripes int    // WAL stripes / store shards; 0 = 16 (the pre-stripe default)

	// Async mode: report with early acknowledgement (202 + background
	// drain) so the recorded ingest latency is ack latency, not store
	// latency. Combine with durable to measure async-over-WAL — the
	// headline comparison against sync durable ingest.
	async bool

	// Cluster mode: run this many in-process panda-server nodes behind
	// an in-process cluster router and drive the load through the
	// router. 0 = single server. Composes with durable (one WAL per
	// node) and async (per-node queues; the drain wait polls the
	// router's merged /v2/ingest/stats).
	cluster int

	// Binary mode: report in the binary record format
	// (application/x-panda-records) instead of JSON. The harness runs a
	// JSON pass first with the same workload, then the binary pass, and
	// prints the ingest-rate and allocations-per-release comparison.
	// Composes with async, durable, stripes and cluster.
	binary bool
}

// latencyRecorder collects per-request latencies, concurrently.
type latencyRecorder struct {
	mu sync.Mutex
	ds []time.Duration
}

func (l *latencyRecorder) add(d time.Duration) {
	l.mu.Lock()
	l.ds = append(l.ds, d)
	l.mu.Unlock()
}

// percentiles returns p50/p90/p99 of the recorded latencies.
func (l *latencyRecorder) percentiles() (p50, p90, p99 time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.ds) == 0 {
		return 0, 0, 0
	}
	sort.Slice(l.ds, func(i, j int) bool { return l.ds[i] < l.ds[j] })
	at := func(q float64) time.Duration {
		i := int(q * float64(len(l.ds)))
		if i >= len(l.ds) {
			i = len(l.ds) - 1
		}
		return l.ds[i]
	}
	return at(0.50), at(0.90), at(0.99)
}

func (l *latencyRecorder) report(w *os.File, name string, n int) {
	p50, p90, p99 := l.percentiles()
	fmt.Fprintf(w, "  %-22s %6d requests   p50 %-10v p90 %-10v p99 %v\n", name, n, p50, p90, p99)
}

// runLoad drives the load test: ingest everything, then hammer the
// analytics endpoints (whose repeated queries exercise the engine's
// cache). Returns a non-nil error on any failed request.
func runLoad(cfg loadConfig) error {
	base, walStore, cleanup, err := startLoadTarget(cfg)
	if err != nil {
		return err
	}
	defer cleanup()
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: cfg.users + 8}}
	ctx := context.Background()

	// Phase 1: batch ingestion, one goroutine per user. In async mode
	// the recorded latency is the 202 ack (the client retries 429
	// backpressure internally, honoring the server's hint). With
	// -lbinary a JSON pass runs first over the same workload so the
	// encoding comparison shares everything else (the binary pass then
	// replaces each (user, t) record — same record count, same shards).
	if cfg.binary {
		jsonRes, err := runIngestPhase(cfg, base, hc, false)
		if err != nil {
			return err
		}
		binRes, err := runIngestPhase(cfg, base, hc, true)
		if err != nil {
			return err
		}
		total := float64(cfg.users * cfg.steps)
		jAllocs, bAllocs := float64(jsonRes.mallocs)/total, float64(binRes.mallocs)/total
		ratio := 0.0
		if bAllocs > 0 {
			ratio = jAllocs / bAllocs
		}
		scope := "process-wide: client+server"
		if cfg.url != "" {
			scope = "client side only (-url targets a separate process)"
		}
		fmt.Printf("load: binary vs JSON: %.0f vs %.0f releases/sec, allocs/release %.1f vs %.1f (%.1fx fewer, %s)\n",
			float64(cfg.users*cfg.steps)/binRes.elapsed.Seconds(),
			float64(cfg.users*cfg.steps)/jsonRes.elapsed.Seconds(),
			bAllocs, jAllocs, ratio, scope)
	} else if _, err := runIngestPhase(cfg, base, hc, false); err != nil {
		return err
	}
	if walStore != nil {
		if err := walStore.Sync(); err != nil {
			return fmt.Errorf("wal sync after ingest: %w", err)
		}
		st := walStore.Stats()
		fmt.Printf("load: wal after ingest: %d live records, %d garbage, %d stripes, top segment %d, %d compactions\n",
			st.LiveRecords, st.Garbage, st.Stripes, st.ActiveSeq, st.Compactions)
	}

	// Phase 2: analytics queries. Repeated shapes hit the engine cache;
	// the first of each shape computes it.
	fmt.Printf("load: running %d queries per analytics endpoint\n", cfg.queries)
	var (
		errOnce  sync.Once
		firstErr error
	)
	fail := func(err error) { errOnce.Do(func() { firstErr = err }) }
	endpoints := []struct {
		name string
		lat  *latencyRecorder
		call func(c *server.Client, rng *rand.Rand) error
	}{
		{"GET /v2/density", &latencyRecorder{}, func(c *server.Client, rng *rand.Rand) error {
			_, err := c.DensityContext(ctx, int(rng.Int64N(int64(cfg.steps))), 4, 4)
			return err
		}},
		{"GET /v2/density/series", &latencyRecorder{}, func(c *server.Client, rng *rand.Rand) error {
			t0 := int(rng.Int64N(int64(max(1, cfg.steps-10))))
			_, err := c.DensitySeriesContext(ctx, t0, min(t0+9, cfg.steps-1), 4, 4)
			return err
		}},
		{"GET /v2/census", &latencyRecorder{}, func(c *server.Client, rng *rand.Rand) error {
			_, err := c.CensusContext(ctx, 10, cfg.steps-1)
			return err
		}},
	}
	conc := min(cfg.users, 32)
	for _, ep := range endpoints {
		var qwg sync.WaitGroup
		per := (cfg.queries + conc - 1) / conc
		for w := 0; w < conc; w++ {
			qwg.Add(1)
			go func(seed int) {
				defer qwg.Done()
				client := server.NewClient(base, hc)
				rng := rand.New(rand.NewPCG(uint64(seed), 7))
				for i := 0; i < per; i++ {
					reqStart := time.Now()
					if err := ep.call(client, rng); err != nil {
						fail(fmt.Errorf("%s: %w", ep.name, err))
						return
					}
					ep.lat.add(time.Since(reqStart))
				}
			}(w)
		}
		qwg.Wait()
		if firstErr != nil {
			return firstErr
		}
		ep.lat.report(os.Stdout, ep.name, conc*per)
	}
	return nil
}

// startLoadTarget boots the configured load target and returns its base
// URL: N in-process nodes behind a cluster router (-lcluster), a single
// in-process server, or an external -url. walStore is non-nil only for
// the single in-process durable store (for post-ingest WAL stats).
// cleanup tears everything down in dependency order; it is safe to call
// exactly once, error or not. Shared by the load harness and the
// scenario harness (scenario.go), so every transport/durability/cluster
// combination behaves identically under both.
func startLoadTarget(cfg loadConfig) (base string, walStore *wal.Store, cleanup func(), err error) {
	stripes := cfg.stripes
	if stripes < 1 {
		stripes = 16
	}
	if cfg.url != "" {
		if cfg.durable {
			return "", nil, func() {}, errors.New("-ldurable only applies to the in-process server (drop -url)")
		}
		fmt.Printf("load: targeting %s\n", cfg.url)
		return cfg.url, nil, func() {}, nil
	}
	if cfg.cluster > 0 {
		base, cleanup, err = startLoadCluster(cfg, stripes)
		return base, nil, cleanup, err
	}

	var closers []func()
	cleanup = func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}
	defer func() {
		if err != nil {
			cleanup()
		}
	}()
	grid := geo.MustGrid(32, 32, 1)
	mgr, err := policy.NewManager(grid, policy.Baseline(grid), 1.0)
	if err != nil {
		return "", nil, cleanup, err
	}
	var db *server.DB
	if cfg.durable {
		dir := cfg.dir
		if dir == "" {
			dir, err = os.MkdirTemp("", "panda-load-wal-*")
			if err != nil {
				return "", nil, cleanup, err
			}
			tmp := dir
			closers = append(closers, func() { os.RemoveAll(tmp) })
		}
		sync := wal.SyncBuffered
		if cfg.fsync {
			sync = wal.SyncAlways
		}
		walStore, err = wal.Open(dir, wal.Options{Shards: stripes, Sync: sync})
		if err != nil {
			return "", nil, cleanup, err
		}
		closers = append(closers, func() { walStore.Close() })
		db, err = server.NewDBOn(grid, walStore)
		if err != nil {
			return "", nil, cleanup, err
		}
		fmt.Printf("load: durable store: wal in %s, sync=%s, %d stripes\n", dir, sync, stripes)
	} else {
		db = server.NewShardedDB(grid, stripes)
	}
	srv, err := server.NewServerOpts(db, mgr, server.Options{AsyncIngest: cfg.async})
	if err != nil {
		return "", nil, cleanup, err
	}
	if cfg.async {
		// Drain acknowledged batches before the WAL store closes.
		closers = append(closers, func() { srv.DrainIngest(context.Background()) })
	}
	ts := httptest.NewServer(srv.Handler())
	closers = append(closers, ts.Close)
	mode := "sync ingest"
	if cfg.async {
		mode = "async ingest"
	}
	fmt.Printf("load: in-process server at %s (32x32 grid, %d store shards, %s)\n", ts.URL, stripes, mode)
	return ts.URL, walStore, cleanup, nil
}

// ingestResult summarizes one ingest pass.
type ingestResult struct {
	start   time.Time // when the timed window opened, after every warmup
	elapsed time.Duration
	// mallocs is the process-wide heap allocation count over the pass
	// (drain wait included) — with an in-process server that is the full
	// client+server cost of the encoding.
	mallocs uint64
}

// runIngestPhase drives one full ingest pass (all users, all batches,
// plus the drain wait in async mode) under the chosen encoding and
// reports its duration and allocation count. Every user first warms its
// policy cache; the clock and the malloc window start only once all
// warmups are done, so neither counts the policy-fetch storm.
func runIngestPhase(cfg loadConfig, base string, hc *http.Client, binary bool) (ingestResult, error) {
	encoding := "json"
	if binary {
		encoding = "binary"
	}
	fmt.Printf("load: ingesting %d users x %d releases (batches of %d, %s encoding)\n",
		cfg.users, cfg.steps, cfg.batch, encoding)
	var (
		wg        sync.WaitGroup
		warm      sync.WaitGroup // the warmups, all done before the clock starts
		begin     = make(chan struct{})
		ingestLat latencyRecorder
		errOnce   sync.Once
		firstErr  error
	)
	fail := func(err error) { errOnce.Do(func() { firstErr = err }) }
	ctx := context.Background()
	for u := 0; u < cfg.users; u++ {
		wg.Add(1)
		warm.Add(1)
		go func(user int) {
			defer wg.Done()
			client := server.NewClient(base, hc)
			// Warm the policy cache untimed: the first report otherwise
			// carries a GET /v2/policy (a whole policy-graph marshal),
			// and under the initial burst that fetch storm — identical
			// in sync and async mode — would dominate the percentiles.
			_, err := client.PolicyContext(ctx, user)
			warm.Done()
			if err != nil {
				fail(fmt.Errorf("user %d policy warmup: %w", user, err))
				return
			}
			<-begin
			rng := rand.New(rand.NewPCG(uint64(user), 42))
			for t0 := 0; t0 < cfg.steps; t0 += cfg.batch {
				n := cfg.batch
				if t0+n > cfg.steps {
					n = cfg.steps - t0
				}
				releases := make([]wire.Release, n)
				for i := range releases {
					releases[i] = wire.Release{
						T: t0 + i,
						X: rng.Float64() * 32, Y: rng.Float64() * 32,
					}
				}
				reqStart := time.Now()
				var err error
				switch {
				case cfg.async:
					var ack server.AsyncAck
					if binary {
						ack, err = client.ReportBatchBinaryAsyncContext(ctx, user, releases)
					} else {
						ack, err = client.ReportBatchAsyncContext(ctx, user, releases)
					}
					if err == nil && ack.SyncFallback {
						// Fail fast: labeling sync latencies as async ack
						// percentiles would be exactly the wrong number.
						fail(errors.New("-lasync: target server has async ingest disabled (sync fallback)"))
						return
					}
				case binary:
					_, err = client.ReportBatchBinaryContext(ctx, user, releases)
				default:
					_, err = client.ReportBatchContext(ctx, user, releases)
				}
				if err != nil {
					fail(fmt.Errorf("user %d batch at t=%d: %w", user, t0, err))
					return
				}
				ingestLat.add(time.Since(reqStart))
			}
		}(u)
	}
	warm.Wait()
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	close(begin)
	wg.Wait()
	elapsed := time.Since(start)
	if firstErr != nil {
		return ingestResult{}, firstErr
	}
	total := cfg.users * cfg.steps
	fmt.Printf("load: ingested %d releases in %v (%.0f releases/sec)\n", total, elapsed.Round(time.Millisecond),
		float64(total)/elapsed.Seconds())
	reqName := "POST /v2/reports"
	if cfg.async {
		reqName = "POST /v2/reports (ack)"
	}
	ingestLat.report(os.Stdout, reqName, cfg.users*((cfg.steps+cfg.batch-1)/cfg.batch))
	if cfg.async {
		if err := awaitDrain(ctx, base, hc); err != nil {
			return ingestResult{}, err
		}
	}
	runtime.ReadMemStats(&ms1)
	return ingestResult{start: start, elapsed: elapsed, mallocs: ms1.Mallocs - ms0.Mallocs}, nil
}

// awaitDrain waits for the async ingest queue (or, through the router,
// every node's queue) to empty so the analytics phase queries the full
// dataset; the wait itself measures drain lag. Bounded wait: on a shared
// server other clients keep the queue non-empty, and a wedged drain
// would never reach zero — turn either into a diagnosable error instead
// of hanging forever.
func awaitDrain(ctx context.Context, base string, hc *http.Client) error {
	const drainStall = 30 * time.Second
	mon := server.NewClient(base, hc)
	drainStart := time.Now()
	lastDepth, lastProgress := -1, time.Now()
	for {
		st, err := mon.IngestStatsContext(ctx)
		if err != nil {
			return fmt.Errorf("polling ingest stats: %w", err)
		}
		if !st.Enabled {
			return errors.New("-lasync: target server has async ingest disabled")
		}
		if st.Depth == 0 {
			fmt.Printf("load: ingest queue drained in %v after last ack (%d drained, %d rejected 429s, lag %.1fms)\n",
				time.Since(drainStart).Round(time.Millisecond), st.Drained, st.Rejected, st.LagMS)
			return nil
		}
		if st.Depth != lastDepth {
			lastDepth, lastProgress = st.Depth, time.Now()
		} else if time.Since(lastProgress) > drainStall {
			return fmt.Errorf("-lasync: ingest queue stuck at depth %d for %v (shared server with other writers, or a wedged drain?)",
				st.Depth, drainStall)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// startLoadCluster brings up cfg.cluster in-process panda-server nodes
// behind an in-process cluster router and returns the router's base
// URL. The ring gets 8x partition headroom over the node count with
// round-robin ownership (partition p → node p mod N). cleanup tears the
// fleet down in dependency order: router first, then each node's
// frontend, queue drain, and store.
func startLoadCluster(cfg loadConfig, stripes int) (base string, cleanup func(), err error) {
	var closers []func()
	cleanup = func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}
	defer func() {
		if err != nil {
			cleanup()
		}
	}()
	grid := geo.MustGrid(32, 32, 1)
	partitions := cfg.cluster * 8
	walSync := wal.SyncBuffered
	if cfg.fsync {
		walSync = wal.SyncAlways
	}
	baseDir := cfg.dir
	if cfg.durable && baseDir == "" {
		baseDir, err = os.MkdirTemp("", "panda-load-cluster-*")
		if err != nil {
			return "", cleanup, err
		}
		dir := baseDir
		closers = append(closers, func() { os.RemoveAll(dir) })
	}
	nodes := make([]cluster.Node, cfg.cluster)
	for i := 0; i < cfg.cluster; i++ {
		mgr, err := policy.NewManager(grid, policy.Baseline(grid), 1.0)
		if err != nil {
			return "", cleanup, err
		}
		var db *server.DB
		if cfg.durable {
			st, err := wal.Open(filepath.Join(baseDir, fmt.Sprintf("node%d", i)),
				wal.Options{Shards: stripes, Sync: walSync})
			if err != nil {
				return "", cleanup, err
			}
			closers = append(closers, func() { st.Close() })
			if db, err = server.NewDBOn(grid, st); err != nil {
				return "", cleanup, err
			}
		} else {
			db = server.NewShardedDB(grid, stripes)
		}
		srv, err := server.NewServerOpts(db, mgr, server.Options{AsyncIngest: cfg.async})
		if err != nil {
			return "", cleanup, err
		}
		if cfg.async {
			// Drain acknowledged batches before the node's store closes.
			closers = append(closers, func() { srv.DrainIngest(context.Background()) })
		}
		ts := httptest.NewServer(srv.Handler())
		closers = append(closers, ts.Close)
		var owned []int
		for p := i; p < partitions; p += cfg.cluster {
			owned = append(owned, p)
		}
		nodes[i] = cluster.Node{Name: fmt.Sprintf("node%d", i), URL: ts.URL, Partitions: owned}
	}
	// Round-trip the ring through its own parser so the load harness
	// exercises the same validation path as a ring file.
	ringJSON, err := json.Marshal(cluster.Ring{Partitions: partitions, Nodes: nodes})
	if err != nil {
		return "", cleanup, err
	}
	ring, err := cluster.ParseRing(ringJSON)
	if err != nil {
		return "", cleanup, err
	}
	rt, err := cluster.New(cluster.Config{Ring: ring, ProbeInterval: time.Second})
	if err != nil {
		return "", cleanup, err
	}
	rtCtx, rtCancel := context.WithCancel(context.Background())
	rt.Start(rtCtx)
	closers = append(closers, func() { rtCancel(); rt.Stop() })
	rts := httptest.NewServer(rt.Handler())
	closers = append(closers, rts.Close)
	mode := "sync ingest"
	if cfg.async {
		mode = "async ingest"
	}
	durability := "memory"
	if cfg.durable {
		durability = fmt.Sprintf("wal under %s (%d stripes each)", baseDir, stripes)
	}
	fmt.Printf("load: cluster: %d in-process nodes behind router at %s (%d partitions, %s, %s)\n",
		cfg.cluster, rts.URL, partitions, durability, mode)
	return rts.URL, cleanup, nil
}
