package wal

// Crash-recovery tests specific to the striped layout: stripe/shard
// placement agreement, MANIFEST enforcement, refusal of removed
// layouts, partial cross-stripe batches, and the rotation/iterator
// interplay that snapshots (SaveJSON upstream) depend on.

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/pglp/panda/internal/server/storage"
	"github.com/pglp/panda/internal/server/storage/storagetest"
)

// TestStripePlacementMatchesShards pins the routing agreement the whole
// design rests on: stripe i's log files contain exactly the records of
// users with storage.ShardFor(user, N) == i — the same users whose
// memory lives in shard i — so a stripe snapshot taken from shard i can
// never drop someone else's records.
func TestStripePlacementMatchesShards(t *testing.T) {
	const stripes = 4
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{Shards: stripes, CompactMinGarbage: -1})
	for u := 0; u < 20; u++ {
		for ti := 0; ti < 3; ti++ {
			s.Insert(rec(u, ti, u+ti))
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < stripes; i++ {
		_, err := replayFile(stripePath(dir, i, segmentName(1)), func(r storage.Record) {
			if got := storage.ShardFor(r.User, stripes); got != i {
				t.Fatalf("stripe %d holds user %d, who routes to stripe %d", i, r.User, got)
			}
		})
		if err != nil {
			t.Fatalf("stripe %d: %v", i, err)
		}
	}
}

// TestStripeMismatchRejected: reopening a directory with a different
// Shards value must fail with ErrStripeMismatch and leave the data
// untouched — mis-sharded compaction would otherwise drop records from
// disk (see manifest.go).
func TestStripeMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{Shards: 4, CompactMinGarbage: -1})
	for u := 0; u < 10; u++ {
		s.Insert(rec(u, 0, u))
	}
	want := collect(s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := Open(dir, Options{Shards: 8, CompactMinGarbage: -1}); !errors.Is(err, ErrStripeMismatch) {
		t.Fatalf("Open with wrong Shards: err=%v, want ErrStripeMismatch", err)
	}
	if _, err := Open(dir, Options{Shards: 1, CompactMinGarbage: -1}); !errors.Is(err, ErrStripeMismatch) {
		t.Fatalf("Open with explicit Shards=1: err=%v, want ErrStripeMismatch", err)
	}

	// Shards: 0 is "no opinion" — it adopts the MANIFEST's count
	// instead of failing, so embedders that never set the knob reopen
	// any directory cleanly.
	adopted := mustOpen(t, dir, noAutoCompact)
	if st := adopted.Stats(); st.Stripes != 4 {
		t.Fatalf("Shards=0 adopted %d stripes, want 4", st.Stripes)
	}
	if err := adopted.Close(); err != nil {
		t.Fatal(err)
	}

	// The refusal must not have modified anything.
	back := mustOpen(t, dir, Options{Shards: 4, CompactMinGarbage: -1})
	defer back.Close()
	got := collect(back)
	if len(got) != len(want) {
		t.Fatalf("recovered %d records after mismatch rejections, want %d", len(got), len(want))
	}
	for k, r := range want {
		if got[k] != r {
			t.Fatalf("key %v: recovered %+v, want %+v", k, got[k], r)
		}
	}
}

// TestManifestMalformedRejected: a damaged or future-versioned MANIFEST
// is an error, never a guess.
func TestManifestMalformedRejected(t *testing.T) {
	for _, body := range []string{
		"",
		"panda-wal-manifest v2\n",
		"panda-wal-manifest v3\nstripes 4\n",
		"panda-wal-manifest v2\nstripes 0\n",
		"panda-wal-manifest v2\nstripes x\n",
		"something else\nstripes 4\n",
	} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir, noAutoCompact); err == nil {
			t.Fatalf("Open accepted manifest %q", body)
		}
	}
}

// TestMissingManifestRejected: stripe directories without a MANIFEST
// (lost, or deleted in a misguided restripe attempt) must refuse to
// open — writing a fresh MANIFEST over them could mis-route compaction
// and drop records from disk.
func TestMissingManifestRejected(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{Shards: 2, CompactMinGarbage: -1})
	s.Insert(rec(1, 0, 5))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, manifestName)); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{Shards: 2, CompactMinGarbage: -1}); err == nil {
		t.Fatal("Open accepted stripe dirs without a MANIFEST")
	}
	// Restoring the manifest recovers the store intact.
	if err := writeManifest(dir, 2); err != nil {
		t.Fatal(err)
	}
	back := mustOpen(t, dir, Options{Shards: 2, CompactMinGarbage: -1})
	defer back.Close()
	if back.Len() != 1 || back.UserRecords(1)[0].Cell != 5 {
		t.Fatalf("recovered %d records after manifest restore", back.Len())
	}
}

// TestManifestReader covers the exported Manifest helper callers use to
// adopt a directory's existing stripe count before Open.
func TestManifestReader(t *testing.T) {
	dir := t.TempDir()
	if n, ok, err := Manifest(dir); n != 0 || ok || err != nil {
		t.Fatalf("Manifest on fresh dir = (%d, %v, %v)", n, ok, err)
	}
	s := mustOpen(t, dir, Options{Shards: 6, CompactMinGarbage: -1})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if n, ok, err := Manifest(dir); n != 6 || !ok || err != nil {
		t.Fatalf("Manifest after Open = (%d, %v, %v), want (6, true, nil)", n, ok, err)
	}
}

// TestRemovedLayoutsRefused: directories in a removed on-disk format —
// the kv (LSM) backend, the pre-stripe single log with or without a
// MANIFEST beside it — are refused with an error naming the files
// found, whatever Shards asks for, and left byte-identical: no MANIFEST
// is laid over them, no stripe directory created, no .tmp cleaned.
// Besides the shared hand-built fixtures it runs on pre-stripe
// directories holding real log bytes, in the states the old in-place
// migration used to handle: intact, torn, corrupt, half-migrated and
// migrated-but-not-cleaned-up.
func TestRemovedLayoutsRefused(t *testing.T) {
	layouts := append(storagetest.RemovedLayouts(), legacyLayouts(t)...)
	for _, l := range layouts {
		t.Run(l.Name, func(t *testing.T) {
			for _, shards := range []int{0, 1, 4} {
				dir := l.Build(t)
				_, err := Open(dir, Options{Shards: shards, CompactMinGarbage: -1})
				l.Check(t, dir, err)
			}
		})
	}
}

// legacyLayouts builds pre-stripe directories from real wal-format
// files: a root snapshot plus root segments, as the single-log layout
// wrote them.
func legacyLayouts(t *testing.T) []storagetest.RemovedLayout {
	t.Helper()
	build := func(snap []storage.Record, segs ...[]storage.Record) string {
		dir := t.TempDir()
		if snap != nil {
			writeLogFile(t, filepath.Join(dir, snapshotName), snap...)
		}
		for i, seg := range segs {
			writeLogFile(t, filepath.Join(dir, segmentName(uint64(i+1))), seg...)
		}
		return dir
	}
	rewrite := func(path string, edit func([]byte) []byte) {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, edit(b), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want := func(files ...string) string {
		return "pre-stripe single-log files (" + strings.Join(files, ", ") + ")"
	}
	var out []storagetest.RemovedLayout

	// Snapshot and several segments, with a user re-sent across them.
	dir := build([]storage.Record{rec(0, 0, 1), rec(1, 0, 2)},
		[]storage.Record{rec(3, 1, 4), rec(0, 0, 9)},
		[]storage.Record{rec(4, 2, 5)})
	out = append(out, storagetest.LayoutOf(t, "legacy-snapshot-and-segments", dir,
		want(snapshotName, segmentName(1), segmentName(2))))

	// The final segment ends in a torn record.
	dir = build(nil, []storage.Record{rec(0, 0, 1), rec(1, 0, 2), rec(2, 0, 3)})
	rewrite(filepath.Join(dir, segmentName(1)), func(b []byte) []byte { return b[:len(b)-7] })
	out = append(out, storagetest.LayoutOf(t, "legacy-torn-tail", dir, want(segmentName(1))))

	// Damage in a non-final segment: refused as a removed layout, not
	// read far enough to be reported as ErrCorrupt.
	dir = build(nil, []storage.Record{rec(0, 0, 1), rec(1, 0, 2)}, []storage.Record{rec(2, 0, 3)})
	rewrite(filepath.Join(dir, segmentName(1)), func(b []byte) []byte { b[headerSize+10] ^= 0xff; return b })
	out = append(out, storagetest.LayoutOf(t, "legacy-corrupt-segment", dir,
		want(segmentName(1), segmentName(2))))

	// A migration that crashed before its MANIFEST write: root legacy
	// files plus stale stripe debris.
	dir = build(nil, []storage.Record{rec(0, 0, 1), rec(2, 0, 2)})
	if err := os.MkdirAll(filepath.Join(dir, stripeDirName(0)), 0o755); err != nil {
		t.Fatal(err)
	}
	writeLogFile(t, stripePath(dir, 0, snapshotName), rec(0, 0, 63))
	writeLogFile(t, stripePath(dir, 0, segmentName(7)), rec(4, 9, 9))
	out = append(out, storagetest.LayoutOf(t, "legacy-crashed-migration", dir, want(segmentName(1))))

	// A migration committed (MANIFEST and stripes written by a real
	// store) whose cleanup never ran: a root segment is left over.
	dir = t.TempDir()
	s := mustOpen(t, dir, Options{Shards: 2, CompactMinGarbage: -1})
	s.Insert(rec(1, 0, 5))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	writeLogFile(t, filepath.Join(dir, segmentName(1)), rec(1, 0, 63), rec(9, 9, 9))
	out = append(out, storagetest.LayoutOf(t, "legacy-beside-committed-manifest", dir, want(segmentName(1))))

	return out
}

// TestPartialCrossStripeBatch pins the honest crash semantics of a
// batch spanning stripes: the appends land stripe by stripe, so a crash
// between them durably keeps one stripe's half of the batch and loses
// the other's. Replay must surface exactly the intact records — no
// all-or-nothing pretense, and no refusal either (each stripe's log is
// individually well-formed).
func TestPartialCrossStripeBatch(t *testing.T) {
	const stripes = 2
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{Shards: stripes, CompactMinGarbage: -1})
	// One logical batch: users 0 and 2 route to stripe 0, users 1 and 3
	// to stripe 1.
	batch := []storage.Record{rec(0, 0, 10), rec(1, 0, 11), rec(2, 0, 12), rec(3, 0, 13)}
	if added := s.InsertBatch(batch); added != 4 {
		t.Fatalf("InsertBatch added %d, want 4", added)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash between the stripe appends: stripe 1's half never reached
	// the disk. Simulate by truncating stripe 1's segment back to its
	// header.
	if err := os.Truncate(stripePath(dir, 1, segmentName(1)), headerSize); err != nil {
		t.Fatal(err)
	}

	back := mustOpen(t, dir, Options{Shards: stripes, CompactMinGarbage: -1})
	defer back.Close()
	if back.Len() != 2 {
		t.Fatalf("recovered %d records, want 2 (stripe 0's half of the batch)", back.Len())
	}
	for _, u := range []int{0, 2} {
		if got := back.UserRecords(u); len(got) != 1 || got[0].Cell != 10+u {
			t.Fatalf("user %d records after partial-batch replay: %+v", u, got)
		}
	}
	for _, u := range []int{1, 3} {
		if got := back.UserRecords(u); len(got) != 0 {
			t.Fatalf("user %d records survived a truncated stripe: %+v", u, got)
		}
	}
}

// TestSyncAlwaysConcurrentStripes exercises the group-commit fsync path
// under the race detector: concurrent single-record and cross-stripe
// batch writers in SyncAlways mode, racing a compaction loop, must all
// be durable at Close.
func TestSyncAlwaysConcurrentStripes(t *testing.T) {
	const stripes = 4
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{Shards: stripes, Sync: SyncAlways, CompactMinGarbage: -1})
	const writers, perWriter = 8, 40
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if i%4 == 0 {
					// Cross-stripe batch: users w, w+1, w+2 span stripes.
					s.InsertBatch([]storage.Record{
						rec(w, i, 1), rec(w+writers, i, 2), rec(w+2*writers, i, 3),
					})
				} else {
					s.Insert(rec(w, i, i%64))
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	var cwg sync.WaitGroup
	cwg.Add(1)
	go func() {
		defer cwg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := s.Compact(); err != nil {
				t.Errorf("Compact: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	cwg.Wait()
	want := collect(s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	back := mustOpen(t, dir, Options{Shards: stripes, CompactMinGarbage: -1})
	defer back.Close()
	got := collect(back)
	if len(got) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(got), len(want))
	}
	for k, r := range want {
		if got[k] != r {
			t.Fatalf("key %v: recovered %+v, want %+v", k, got[k], r)
		}
	}
}

// TestScanAtomicityDuringRotation is the regression test for the
// compaction/snapshot interplay: a full Scan (what DB.SaveJSON runs)
// racing cross-stripe batch inserts and per-stripe segment rotations
// must always observe whole batches — never a half-applied one — and
// nothing may be lost across the concurrent compactions. The audit
// behind it: rotation holds only the stripe's own locks and never the
// memory shard locks, and the stripe snapshot reads the shard under its
// read lock after rotation, so an iterator (holding all shard read
// locks) can overlap a rotation freely; the batch-atomicity guarantee
// comes solely from the memory apply locking every involved shard
// before inserting anything.
func TestScanAtomicityDuringRotation(t *testing.T) {
	const stripes = 4
	const users = 8 // spans all stripes
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{Shards: stripes, CompactMinGarbage: -1})

	var (
		nextT   atomic.Int64
		stop    = make(chan struct{})
		wg      sync.WaitGroup
		scanErr = make(chan string, 1)
	)
	// Writer: each batch is one timestep across all users; a scan that
	// sees some but not all of a timestep's records caught a torn batch.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			ti := int(nextT.Add(1))
			batch := make([]storage.Record, users)
			for u := 0; u < users; u++ {
				batch[u] = rec(u, ti, ti%64)
			}
			s.InsertBatch(batch)
		}
	}()
	// Compactor: rotate all stripes as fast as possible.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := s.Compact(); err != nil {
				select {
				case scanErr <- "Compact: " + err.Error():
				default:
				}
				return
			}
		}
	}()
	// Scanner (this goroutine): the SaveJSON access pattern.
	for i := 0; i < 200; i++ {
		perT := make(map[int]int)
		s.Scan(func(r storage.Record) bool {
			perT[r.T]++
			return true
		})
		for ti, n := range perT {
			if n != users {
				close(stop)
				wg.Wait()
				t.Fatalf("torn batch: timestep %d had %d records, want %d", ti, n, users)
			}
		}
	}
	close(stop)
	wg.Wait()
	select {
	case msg := <-scanErr:
		t.Fatal(msg)
	default:
	}
	want := collect(s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	back := mustOpen(t, dir, Options{Shards: stripes, CompactMinGarbage: -1})
	defer back.Close()
	got := collect(back)
	if len(got) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(got), len(want))
	}
}
