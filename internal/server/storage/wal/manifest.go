package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"github.com/pglp/panda/internal/server/storage"
)

// The MANIFEST is the authority on a data directory's shape. It is a
// two-line text file written atomically (tmp + rename + directory
// fsync) exactly once, when the directory is first laid out:
//
//	panda-wal-manifest v2
//	stripes <N>
//
// Its job is to make mis-sharding impossible: records are routed to
// stripes by storage.ShardFor(user, N), so opening an N-stripe
// directory as if it had M stripes would replay every record into the
// right memory shard (replay routes by the record itself) but compact
// each stripe against the wrong shard's contents, silently dropping
// records from disk on the next segment deletion. Open therefore
// refuses a stripe-count mismatch with ErrStripeMismatch instead of
// guessing. Directories in a removed format — the pre-stripe single
// log, or the kv (LSM) backend — are refused untouched; see
// inspectRoot.
const (
	manifestName    = "MANIFEST"
	manifestVersion = 2
)

// removedHint tells an operator what to do with a directory in a
// removed on-disk format.
const removedHint = "open it with the last release that reads it, then re-ingest its records through /v2 (PERSISTENCE.md, \"Removed\")"

// ErrStripeMismatch reports that a data directory's MANIFEST pins a
// different stripe count than Options.Shards requested. Nothing has
// been touched: reopen with the MANIFEST's count (wal.Manifest reads
// it), or restripe offline (see PERSISTENCE.md).
var ErrStripeMismatch = errors.New("wal: stripe count mismatch")

// Manifest reads dir's MANIFEST and returns its stripe count. ok is
// false (with a nil error) when the directory has no MANIFEST — a
// fresh directory, or one Open will refuse. A malformed,
// future-versioned or kv-backend MANIFEST is an error.
func Manifest(dir string) (stripes int, ok bool, err error) {
	b, err := os.ReadFile(filepath.Join(dir, manifestName))
	if os.IsNotExist(err) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, fmt.Errorf("wal: reading manifest: %w", err)
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) > 0 && strings.HasPrefix(lines[0], "panda-lsm-manifest") {
		return 0, false, fmt.Errorf("wal: %s is a data dir of the removed kv (LSM) backend (its MANIFEST says %q); %s", dir, lines[0], removedHint)
	}
	if len(lines) != 2 {
		return 0, false, fmt.Errorf("wal: malformed manifest in %s", dir)
	}
	var ver int
	if _, err := fmt.Sscanf(strings.TrimSpace(lines[0]), "panda-wal-manifest v%d", &ver); err != nil {
		return 0, false, fmt.Errorf("wal: malformed manifest in %s", dir)
	}
	if ver != manifestVersion {
		return 0, false, fmt.Errorf("wal: manifest version v%d in %s not supported (this build reads v%d)", ver, dir, manifestVersion)
	}
	if _, err := fmt.Sscanf(strings.TrimSpace(lines[1]), "stripes %d", &stripes); err != nil || stripes < 1 {
		return 0, false, fmt.Errorf("wal: malformed manifest in %s", dir)
	}
	return stripes, true, nil
}

// inspectRoot reads dir's top level without modifying it. It refuses
// files of a removed on-disk format, naming them: the pre-stripe
// single log (a root snapshot.dat or wal-*.log) and the kv backend
// (log-*.log, run-*.sst — caught here even when their MANIFEST is
// lost). Otherwise it reports whether dir holds stripe directories.
func inspectRoot(dir string) (hasStripes bool, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false, fmt.Errorf("wal: %w", err)
	}
	var preStripe, kv []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() {
			var i int
			if _, serr := fmt.Sscanf(name, "stripe-%d", &i); serr == nil {
				hasStripes = true
			}
			continue
		}
		if _, segment := parseSegmentName(name); segment || name == snapshotName {
			preStripe = append(preStripe, name)
		} else if (strings.HasPrefix(name, "log-") && strings.HasSuffix(name, ".log")) ||
			(strings.HasPrefix(name, "run-") && strings.HasSuffix(name, ".sst")) {
			kv = append(kv, name)
		}
	}
	if len(kv) > 0 {
		return false, fmt.Errorf("wal: %s holds files of the removed kv (LSM) backend (%s); %s",
			dir, strings.Join(kv, ", "), removedHint)
	}
	if len(preStripe) > 0 {
		return false, fmt.Errorf("wal: %s holds pre-stripe single-log files (%s), a layout this build no longer migrates; %s",
			dir, strings.Join(preStripe, ", "), removedHint)
	}
	return hasStripes, nil
}

// writeManifest atomically creates dir's MANIFEST — the commit point
// of a fresh layout.
func writeManifest(dir string, stripes int) error {
	body := fmt.Sprintf("panda-wal-manifest v%d\nstripes %d\n", manifestVersion, stripes)
	return storage.WriteFileAtomic(dir, manifestName, []byte(body))
}

// stripeDirName formats the subdirectory of stripe i.
func stripeDirName(i int) string { return fmt.Sprintf("stripe-%03d", i) }
