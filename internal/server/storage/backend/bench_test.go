package backend_test

// Backend benchmark matrix: the same workload against every store
// behind the storage.Store seam — the two in-memory stores and the
// durable WAL — so the cost of each durability rung is one
// column-to-column read. CI records the run as the bench-backends.txt
// artifact (scripts/bench-backends.sh) and folds it into
// bench-trend.json; PERSISTENCE.md keeps a measured table.
//
// The matrix deliberately reuses one record stream per benchmark so a
// row differs from its neighbors only in the backend: ingest (batched,
// the intended durable write path), time-window analytics (ScanRange),
// and recovery (reopen a 50k-record directory, with bytes-on-disk per
// live record reported as disk_B/rec — the write-amplification knob
// compaction exists to bound).

import (
	"os"
	"path/filepath"
	"testing"

	"github.com/pglp/panda/internal/server/storage"
	"github.com/pglp/panda/internal/server/storage/backend"
)

// matrixStore opens one named store for the matrix. Close is a no-op
// for the memory stores.
func matrixStore(b *testing.B, name string) (storage.Store, func() error) {
	b.Helper()
	switch name {
	case "mem":
		return storage.NewMemStore(), func() error { return nil }
	case "sharded":
		return storage.NewShardedStore(8), func() error { return nil }
	default: // "wal"
		s, err := backend.Open(name, b.TempDir(), backend.Options{Shards: 8})
		if err != nil {
			b.Fatal(err)
		}
		return s, s.Close
	}
}

var matrixNames = []string{"mem", "sharded", backend.WAL}

// fill loads n records across 100 users so every backend benchmark
// reads the same shape: user-major batches, timestamps 0..n/100.
func fill(b *testing.B, s storage.Store, n int) {
	b.Helper()
	const batch = 100
	recs := make([]storage.Record, batch)
	for i := 0; i < n/batch; i++ {
		for j := range recs {
			recs[j] = rec(j, i, (i+j)%64)
		}
		s.InsertBatch(recs)
	}
}

// BenchmarkBackendIngest: 100-record batch inserts, the drain worker's
// write shape. Buffered durability for the WAL (the fsync column is
// wal's BenchmarkInsertBatch100WALFsync).
func BenchmarkBackendIngest(b *testing.B) {
	for _, name := range matrixNames {
		b.Run(name, func(b *testing.B) {
			s, close := matrixStore(b, name)
			defer close()
			const batch = 100
			recs := make([]storage.Record, batch)
			b.ReportAllocs()
			b.SetBytes(int64(batch * storage.PayloadSize))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range recs {
					recs[j] = rec(j%1000, i, (i+j)%64)
				}
				s.InsertBatch(recs)
			}
		})
	}
}

// BenchmarkBackendScanRange: a 16-timestep analytics window over a
// 50k-record store — the DensityAt/SpreadBetween read shape. For the
// durable backends this exercises their memory image, so parity with
// the sharded store (not the disk) is the expectation.
func BenchmarkBackendScanRange(b *testing.B) {
	const n = 50_000
	for _, name := range matrixNames {
		b.Run(name, func(b *testing.B) {
			s, close := matrixStore(b, name)
			defer close()
			fill(b, s, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t0 := (i * 7) % (n/100 - 16)
				count := 0
				s.ScanRange(t0, t0+15, func(storage.Record) bool {
					count++
					return true
				})
				if count == 0 {
					b.Fatal("empty scan window")
				}
			}
		})
	}
}

// BenchmarkBackendReopen: recovery speed for a 50k-record WAL
// directory. disk_B/rec reports bytes on disk per live record — 56 is
// the codec floor; the gap above it is log garbage that compaction
// hasn't reclaimed yet. It is reported after the timed loop because
// ResetTimer discards metrics reported before it.
func BenchmarkBackendReopen(b *testing.B) {
	const n = 50_000
	b.Run(backend.WAL, func(b *testing.B) {
		dir := b.TempDir()
		s, err := backend.Open(backend.WAL, dir, backend.Options{Shards: 8})
		if err != nil {
			b.Fatal(err)
		}
		fill(b, s, n)
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			back, err := backend.Open(backend.WAL, dir, backend.Options{Shards: 8})
			if err != nil {
				b.Fatal(err)
			}
			if back.Len() != n {
				b.Fatalf("recovered %d records, want %d", back.Len(), n)
			}
			if err := back.Close(); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(dirBytes(b, dir))/n, "disk_B/rec")
	})
}

func dirBytes(b *testing.B, dir string) int64 {
	b.Helper()
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	return total
}
