// Package backend opens the durable record store: the striped
// write-ahead log (internal/server/storage/wal), returned through the
// storage.Durable seam so callers (the panda facade, the benchmark
// harness) depend on the contract, not on the WAL's own types.
//
// The WAL is the only durable store. Open refuses a directory laid out
// by a removed format — the kv (LSM) backend, or the pre-stripe single
// log — with an error naming the files it found, and never modifies a
// directory it refuses. PERSISTENCE.md documents both refusals.
package backend

import (
	"fmt"

	"github.com/pglp/panda/internal/server/storage"
	"github.com/pglp/panda/internal/server/storage/wal"
)

// WAL names the striped write-ahead log, the one durable store.
const WAL = "wal"

// Options carry the durability knobs, mapped onto wal.Options.
type Options struct {
	// Shards is the memory fan-out and the WAL stripe count, pinned by
	// the directory's MANIFEST on first use (0 adopts an existing
	// directory's count).
	Shards int
	// SyncEveryWrite selects fsync-before-acknowledge (group commit)
	// instead of the buffered default.
	SyncEveryWrite bool
}

// Open opens (creating or recovering) the WAL store in dir. name must
// be "" or WAL; anything else is an error, returned before the
// directory is touched.
func Open(name, dir string, o Options) (storage.Durable, error) {
	if name != "" && name != WAL {
		return nil, fmt.Errorf("backend: unknown backend %q (the only durable store is %q)", name, WAL)
	}
	sync := wal.SyncBuffered
	if o.SyncEveryWrite {
		sync = wal.SyncAlways
	}
	// A bare `return wal.Open(...)` would wrap a typed nil pointer in a
	// non-nil interface on failure.
	s, err := wal.Open(dir, wal.Options{Shards: o.Shards, Sync: sync})
	if err != nil {
		return nil, err
	}
	return s, nil
}
