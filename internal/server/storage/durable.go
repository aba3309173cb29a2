package storage

// Durable is the contract a persistent store adds on top of Store. The
// striped WAL (internal/server/storage/wal) implements it, and the
// opener (internal/server/storage/backend) returns it so the panda
// facade depends on the contract, not on the WAL's types — and so
// tests and the benchmark harness can wrap or substitute the store.
//
// The durability semantics an implementation must honor:
//
//   - Writes accepted by Insert/InsertBatch are recovered by a later
//     reopen of the same directory, up to the configured sync policy
//     (buffered: os-crash may lose the unsynced tail; fsync-always:
//     an acknowledged write survives power loss).
//   - Err reports the first append failure and is sticky; once it
//     returns non-nil the store no longer guarantees durability for
//     new writes and callers should fail-stop ingest.
//   - CompactErr reports background maintenance (compaction)
//     failures. These are retried and do not void
//     the durability of acknowledged writes, but operators should
//     see them: disk usage grows until the cause clears.
//   - Close flushes and fsyncs buffered state; after a clean Close,
//     reopening recovers exactly the acknowledged record set.
type Durable interface {
	Store

	// Sync forces buffered appends to stable storage.
	Sync() error
	// Err returns the sticky first append/durability failure, if any.
	Err() error
	// CompactErr returns the most recent background maintenance
	// failure, or nil if the last maintenance cycle succeeded.
	CompactErr() error
	// Close seals the store. Safe to call once; the store must not
	// be used afterwards.
	Close() error
}
