package main

import (
	"context"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"github.com/pglp/panda/internal/server"
	"github.com/pglp/panda/internal/server/storage/storagetest"
	"github.com/pglp/panda/internal/server/wire"
)

// launch runs the server in a goroutine and returns its base URL and a
// channel carrying run's result.
func launch(t *testing.T, ctx context.Context, args []string) (string, <-chan error) {
	t.Helper()
	addrCh := make(chan string, 1)
	errCh := make(chan error, 1)
	go func() {
		errCh <- run(ctx, args, func(addr string) { addrCh <- addr })
	}()
	select {
	case addr := <-addrCh:
		return "http://" + addr, errCh
	case err := <-errCh:
		t.Fatalf("server exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}
	return "", nil
}

// TestRestartDurability is the acceptance scenario: reports ingested
// before SIGTERM are served by /v2/records and the analytics endpoints
// after a relaunch on the same -data-dir. The first instance is stopped
// by a real SIGTERM through the same signal path main wires up.
func TestRestartDurability(t *testing.T) {
	dataDir := t.TempDir()
	args := []string{"-addr", "127.0.0.1:0", "-rows", "8", "-cols", "8", "-data-dir", dataDir,
		"-shutdown-grace", "5s"}

	sigCtx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM)
	defer stop()
	base, errCh := launch(t, sigCtx, args)

	client := server.NewClient(base, nil)
	const users, steps = 5, 12
	for u := 0; u < users; u++ {
		releases := make([]wire.Release, steps)
		for i := range releases {
			releases[i] = wire.Release{T: i, X: float64((u + i) % 8), Y: float64(u % 8)}
		}
		if _, err := client.ReportBatch(u, releases); err != nil {
			t.Fatalf("user %d: ReportBatch: %v", u, err)
		}
	}
	wantDensity, err := client.Density(3, 4, 4)
	if err != nil {
		t.Fatalf("Density before restart: %v", err)
	}

	// Stop instance 1 the way an operator would.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("graceful shutdown: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server did not shut down after SIGTERM")
	}

	// Relaunch on the same data dir; everything must still be there.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	base2, errCh2 := launch(t, ctx2, args)
	client2 := server.NewClient(base2, nil)
	for u := 0; u < users; u++ {
		recs, err := client2.Records(u)
		if err != nil {
			t.Fatalf("user %d: Records after restart: %v", u, err)
		}
		if len(recs) != steps {
			t.Fatalf("user %d: %d records after restart, want %d", u, len(recs), steps)
		}
		for i, r := range recs {
			if r.T != i {
				t.Fatalf("user %d record %d: T=%d, want %d", u, i, r.T, i)
			}
		}
	}
	gotDensity, err := client2.Density(3, 4, 4)
	if err != nil {
		t.Fatalf("Density after restart: %v", err)
	}
	if len(gotDensity) != len(wantDensity) {
		t.Fatalf("density length %d vs %d across restart", len(gotDensity), len(wantDensity))
	}
	for i := range gotDensity {
		if gotDensity[i] != wantDensity[i] {
			t.Fatalf("density[%d]=%d after restart, want %d", i, gotDensity[i], wantDensity[i])
		}
	}

	cancel2()
	select {
	case err := <-errCh2:
		if err != nil {
			t.Fatalf("second shutdown: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("second instance did not shut down")
	}
}

// TestAsyncShutdownDrain is the async-ingest acceptance scenario: every
// record acknowledged with 202 must be in the store — and on disk, since
// -data-dir is set — after a graceful SIGTERM, because shutdown drains
// the ingest queue before closing the WAL.
func TestAsyncShutdownDrain(t *testing.T) {
	dataDir := t.TempDir()
	args := []string{"-addr", "127.0.0.1:0", "-rows", "8", "-cols", "8",
		"-data-dir", dataDir, "-async-ingest", "-shutdown-grace", "10s"}

	sigCtx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM)
	defer stop()
	base, errCh := launch(t, sigCtx, args)

	client := server.NewClient(base, nil)
	const users, steps = 8, 50
	for u := 0; u < users; u++ {
		releases := make([]wire.Release, steps)
		for i := range releases {
			releases[i] = wire.Release{T: i, X: float64((u + i) % 8), Y: float64(u % 8)}
		}
		ack, err := client.ReportBatchAsync(u, releases)
		if err != nil {
			t.Fatalf("user %d: ReportBatchAsync: %v", u, err)
		}
		if ack.SyncFallback || ack.Queued != steps {
			t.Fatalf("user %d: ack = %+v, want %d queued async", u, ack, steps)
		}
	}

	// SIGTERM immediately after the last 202 — the queue may still hold
	// unapplied batches; the graceful path must drain them.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("graceful shutdown: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("server did not shut down after SIGTERM")
	}

	// Relaunch on the same data dir: every acknowledged record was
	// durable at shutdown.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	base2, errCh2 := launch(t, ctx2, args)
	client2 := server.NewClient(base2, nil)
	for u := 0; u < users; u++ {
		recs, err := client2.Records(u)
		if err != nil {
			t.Fatalf("user %d: Records after restart: %v", u, err)
		}
		if len(recs) != steps {
			t.Fatalf("user %d: %d durable records after restart, want all %d acknowledged", u, len(recs), steps)
		}
	}
	st, err := client2.IngestStats()
	if err != nil {
		t.Fatalf("IngestStats after restart: %v", err)
	}
	if !st.Enabled {
		t.Fatal("relaunched server lost -async-ingest")
	}
	cancel2()
	select {
	case err := <-errCh2:
		if err != nil {
			t.Fatalf("second shutdown: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("second instance did not shut down")
	}
}

// TestMemoryOnlyStillWorks pins the default (no -data-dir) path through
// the refactored run, including context-cancel shutdown.
func TestMemoryOnlyStillWorks(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	base, errCh := launch(t, ctx, []string{"-addr", "127.0.0.1:0", "-rows", "4", "-cols", "4"})
	client := server.NewClient(base, nil)
	if _, err := client.ReportBatch(1, []wire.Release{{T: 0, X: 1, Y: 1}}); err != nil {
		t.Fatalf("ReportBatch: %v", err)
	}
	recs, err := client.Records(1)
	if err != nil || len(recs) != 1 {
		t.Fatalf("Records: %v (%d records)", err, len(recs))
	}
	cancel()
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server did not shut down")
	}
}

// TestBadFlags pins run's error paths so misconfiguration fails fast.
func TestBadFlags(t *testing.T) {
	ctx := context.Background()
	for _, args := range [][]string{
		{"-rows", "0"},
		{"-policy", "bogus"},
		{"-addr", "not-an-address"},
		{"-backend", "wal", "-data-dir", t.TempDir()}, // the removed store selector
	} {
		if err := run(ctx, args, nil); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

// TestOversizedGridRefused: a grid with more cells than a client may
// decode fails at start-up, before a policy graph is built, so the
// server never publishes a graph its clients refuse.
func TestOversizedGridRefused(t *testing.T) {
	for _, dims := range [][2]string{{"2049", "2048"}, {"4294967296", "4294967296"}} {
		args := []string{"-addr", "127.0.0.1:0", "-rows", dims[0], "-cols", dims[1]}
		if err := run(context.Background(), args, nil); err == nil || !strings.Contains(err.Error(), "MaxNodes") {
			t.Errorf("run(%v): error %v, want the MaxNodes refusal", args, err)
		}
	}
}

// TestRemovedLayoutsRefused: a -data-dir in a removed format — a kv
// (LSM) backend directory or a pre-stripe single log — fails before
// serving, with an error naming the files found, and is left
// byte-identical.
func TestRemovedLayoutsRefused(t *testing.T) {
	for _, l := range storagetest.RemovedLayouts() {
		t.Run(l.Name, func(t *testing.T) {
			dir := l.Build(t)
			err := run(context.Background(), []string{"-addr", "127.0.0.1:0", "-rows", "4", "-cols", "4", "-data-dir", dir}, nil)
			l.Check(t, dir, err)
		})
	}
}

// TestClusterOwnershipPinning: a node booted with -cluster-ring /
// -cluster-node pins its ring slice into the data dir's CLUSTER
// manifest, accepts a restart under the same ring, and refuses a
// restart under a reshaped one — before touching the WAL.
func TestClusterOwnershipPinning(t *testing.T) {
	dataDir := t.TempDir()
	ringDir := t.TempDir()
	writeRing := func(name, body string) string {
		t.Helper()
		p := filepath.Join(ringDir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	ringA := writeRing("ring.json", `{
		"partitions": 4,
		"nodes": [
			{"name": "a", "url": "http://127.0.0.1:9001", "partitions": [0, 1]},
			{"name": "b", "url": "http://127.0.0.1:9002", "partitions": [2, 3]}
		]
	}`)

	boot := func(ring string) error {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		errCh := make(chan error, 1)
		readyCh := make(chan struct{}, 1)
		go func() {
			errCh <- run(ctx, []string{"-addr", "127.0.0.1:0", "-rows", "4", "-cols", "4",
				"-data-dir", dataDir, "-cluster-ring", ring, "-cluster-node", "a",
				"-shutdown-grace", "5s"},
				func(string) { readyCh <- struct{}{} })
		}()
		select {
		case <-readyCh:
			cancel()
			return <-errCh
		case err := <-errCh:
			return err
		case <-time.After(15 * time.Second):
			t.Fatal("server neither became ready nor failed")
			return nil
		}
	}

	if err := boot(ringA); err != nil {
		t.Fatalf("first boot: %v", err)
	}
	manifest, err := os.ReadFile(filepath.Join(dataDir, "CLUSTER"))
	if err != nil {
		t.Fatalf("ownership manifest not written: %v", err)
	}
	want := "panda-cluster-manifest v1\nnode a\npartitions 4\nowned 0,1\n"
	if string(manifest) != want {
		t.Fatalf("manifest = %q, want %q", manifest, want)
	}
	// Same ring again: clean boot.
	if err := boot(ringA); err != nil {
		t.Fatalf("reboot under the same ring: %v", err)
	}
	// Reshaped ring: refused, naming the mismatch.
	ringB := writeRing("ring2.json", `{
		"partitions": 4,
		"nodes": [
			{"name": "a", "url": "http://127.0.0.1:9001", "partitions": [0]},
			{"name": "b", "url": "http://127.0.0.1:9002", "partitions": [1, 2, 3]}
		]
	}`)
	err = boot(ringB)
	if err == nil || !strings.Contains(err.Error(), "ownership mismatch") {
		t.Fatalf("boot under reshaped ring: err = %v, want ownership mismatch", err)
	}
	// Mismatched cluster flags alone are refused too.
	if err := run(context.Background(), []string{"-cluster-ring", ringA}, nil); err == nil {
		t.Error("-cluster-ring without -cluster-node accepted")
	}
}
