// Package wal is the durable persistence backend of the record layer:
// a striped write-ahead log layered over a sharded in-memory
// storage.Store. Every insert is appended to an on-disk log before it
// touches memory, so the full database state survives process
// restarts; Open replays the logs to rebuild memory, tolerating a torn
// final record from a crash mid-append.
//
// The log is striped: the store keeps one independent append log per
// memory shard (records route to stripes by storage.ShardFor, exactly
// like they route to shards), each with its own mutex, segment
// sequence, snapshot and compactor. Writes to different stripes
// append — and fsync — in parallel, and concurrent writers on the same
// stripe share fsyncs (group commit), so durable ingest scales with
// cores instead of serializing on a single log mutex.
//
// # On-disk layout
//
// A store owns one directory:
//
//	MANIFEST                     layout authority: format version + stripe count
//	stripe-000/ … stripe-NNN/    one subdirectory per stripe, each holding
//	  snapshot.dat               the stripe's compacted records, replaced
//	                             atomically (tmp+rename)
//	  wal-<seq>.log              the stripe's append segments, replayed in
//	                             ascending sequence
//	  *.tmp                      in-progress snapshots; removed on Open
//
// Snapshot and segment files share one format: an 8-byte file header
// (magic + version) followed by frames of
//
//	[4-byte LE payload length][4-byte CRC32-C of payload][payload]
//
// where the payload is one fixed-width binary storage.Record. The CRC
// lets replay distinguish a fully-written record from a torn one: an
// invalid frame (short header, short payload, wrong length, CRC
// mismatch) in a stripe's final segment marks the torn tail of a
// crashed append — everything before it is recovered, the tail is
// truncated away, and appends resume from the truncation point. The
// same damage anywhere else (an earlier segment, or a snapshot, which
// is only ever renamed into place complete) cannot be a torn append
// and is reported as corruption instead of silently dropped.
//
// The MANIFEST pins the stripe count: reopening with a different
// Options.Shards fails with ErrStripeMismatch instead of silently
// mis-routing records (see manifest.go for why that would lose data).
// Directories in a removed format — the pre-stripe single log (a bare
// snapshot.dat and wal-*.log in the root) or the removed kv backend
// (log-*.log, run-*.sst, an LSM MANIFEST) — are refused untouched, with
// an error naming the files found.
//
// A batch that spans stripes is appended to each involved stripe in
// turn; a crash between those appends durably keeps some stripes'
// records and not others, and replay surfaces exactly the records that
// are individually intact (partial-batch semantics). Batch atomicity
// is a property of the live in-memory view — never of crash recovery.
// PERSISTENCE.md is the operator's guide to all of the above.
package wal
