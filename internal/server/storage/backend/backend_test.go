package backend_test

import (
	"cmp"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/pglp/panda/internal/geo"
	"github.com/pglp/panda/internal/server/storage"
	"github.com/pglp/panda/internal/server/storage/backend"
	"github.com/pglp/panda/internal/server/storage/storagetest"
	"github.com/pglp/panda/internal/server/storage/wal"
)

func rec(user, t, cell int) storage.Record {
	return storage.Record{
		User: user, T: t, Cell: cell,
		Point: geo.Pt(float64(cell), float64(user)), PolicyVersion: 1,
	}
}

// TestOpenRoundTrip: the default name and "wal" both open the WAL,
// which persists and recovers through the storage.Durable seam.
func TestOpenRoundTrip(t *testing.T) {
	for _, name := range []string{"", backend.WAL} {
		t.Run(cmp.Or(name, "default"), func(t *testing.T) {
			dir := t.TempDir()
			s, err := backend.Open(name, dir, backend.Options{Shards: 2})
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			if _, ok := s.(*wal.Store); !ok {
				t.Fatalf("Open(%q) returned a %T, want *wal.Store", name, s)
			}
			for i := 0; i < 20; i++ {
				s.Insert(rec(i, i%4, i))
			}
			if err := s.Err(); err != nil {
				t.Fatalf("Err: %v", err)
			}
			if err := s.Sync(); err != nil {
				t.Fatalf("Sync: %v", err)
			}
			if err := s.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			back, err := backend.Open(name, dir, backend.Options{Shards: 2})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer back.Close()
			if back.Len() != 20 {
				t.Fatalf("recovered %d records, want 20", back.Len())
			}
			if ce := back.CompactErr(); ce != nil {
				t.Fatalf("CompactErr: %v", ce)
			}
		})
	}
}

// TestUnknownBackendRefused: any name but "" and "wal" — including the
// removed kv backend and its "lsm" alias — fails loudly, before the
// directory is touched.
func TestUnknownBackendRefused(t *testing.T) {
	for _, name := range []string{"kv", "lsm", "bolt", "WAL"} {
		dir := filepath.Join(t.TempDir(), "data")
		_, err := backend.Open(name, dir, backend.Options{})
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("unknown backend %q", name)) {
			t.Errorf("Open(%q) = %v, want unknown-backend error", name, err)
		}
		if _, serr := os.Stat(dir); !os.IsNotExist(serr) {
			t.Errorf("Open(%q) created %s before refusing", name, dir)
		}
	}
}

// TestRemovedLayoutRefusal: a kv-layout or pre-stripe directory is
// refused through the opener with an error naming the files found, and
// left byte-identical.
func TestRemovedLayoutRefusal(t *testing.T) {
	for _, l := range storagetest.RemovedLayouts() {
		t.Run(l.Name, func(t *testing.T) {
			dir := l.Build(t)
			_, err := backend.Open(backend.WAL, dir, backend.Options{})
			l.Check(t, dir, err)
		})
	}
}
