#!/usr/bin/env bash
# bench-backends.sh — run the store benchmark matrix (mem / sharded /
# wal behind the storage.Store seam: ingest and ScanRange for all
# three, reopen with disk_B/rec for the wal) and record it as the
# bench-backends.txt artifact, folded into bench-trend.json like every
# other bench family.
#
# Usage: scripts/bench-backends.sh [benchtime]   (default 300x)
set -euo pipefail
cd "$(dirname "$0")/.."

benchtime=${1:-300x}

go test -run=NONE -bench='BenchmarkBackend' -benchtime="$benchtime" \
  ./internal/server/storage/backend | tee bench-backends.txt

./scripts/bench-trend.sh bench-backends.txt bench-backends
