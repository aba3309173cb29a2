package storagetest

import (
	"maps"
	"os"
	"path"
	"path/filepath"
	"strings"
	"testing"
)

// removedHint is the operator instruction every refusal must carry.
const removedHint = "open it with the last release that reads it, then re-ingest its records through /v2"

// RemovedLayout is a hand-built data directory in an on-disk format
// the durable store no longer opens. Every embedder of the store (the
// wal package, the backend opener, the panda facade, cmd/panda-server)
// must refuse each one with an error containing WantErr and the
// operator hint, and leave the directory byte-identical (Check asserts
// all three).
type RemovedLayout struct {
	Name string
	// Files maps slash-separated paths, relative to the directory, to
	// contents. Data-file contents are placeholders: the refusal keys
	// on file names and MANIFEST text, before any data file is read.
	Files   map[string]string
	WantErr string
}

// RemovedLayouts returns the removed formats: the kv (LSM) backend,
// with and without its MANIFEST, and the pre-stripe single log, with
// and without a MANIFEST beside it (the latter is what a crash between
// a committed migration and its cleanup used to leave).
func RemovedLayouts() []RemovedLayout {
	const (
		kvErr        = "removed kv (LSM) backend"
		preStripeErr = "pre-stripe single-log files"
	)
	return []RemovedLayout{
		{
			Name: "kv",
			Files: map[string]string{
				"MANIFEST":                     "panda-lsm-manifest v1\nflushed 2\nrun 1 5000\nok 7f3a91c4\n",
				"log-0000000000000003.log":     "PKVL log placeholder",
				"run-0000000000000001.sst":     "PKVR run placeholder",
				"run-0000000000000001.sst.tmp": "uncommitted merge output",
			},
			WantErr: kvErr + ` (its MANIFEST says "panda-lsm-manifest v1")`,
		},
		{
			Name: "kv-without-manifest",
			Files: map[string]string{
				"log-0000000000000003.log": "PKVL log placeholder",
				"run-0000000000000001.sst": "PKVR run placeholder",
			},
			WantErr: kvErr + " (log-0000000000000003.log, run-0000000000000001.sst)",
		},
		{
			Name: "pre-stripe",
			Files: map[string]string{
				"snapshot.dat":             "snapshot placeholder",
				"wal-0000000000000001.log": "segment placeholder",
				"wal-0000000000000002.log": "segment placeholder",
			},
			WantErr: preStripeErr + " (snapshot.dat, wal-0000000000000001.log, wal-0000000000000002.log)",
		},
		{
			Name: "pre-stripe-beside-manifest",
			Files: map[string]string{
				"MANIFEST":                            "panda-wal-manifest v2\nstripes 1\n",
				"stripe-000/snapshot.dat":             "snapshot placeholder",
				"stripe-000/wal-0000000000000001.log": "segment placeholder",
				"wal-0000000000000001.log":            "leftover root segment",
			},
			WantErr: preStripeErr + " (wal-0000000000000001.log)",
		},
	}
}

// LayoutOf reads dir, laid out by real code rather than by hand, into
// a RemovedLayout, so a package that can still write a removed
// format's actual bytes can check its refusal on them.
func LayoutOf(t *testing.T, name, dir, wantErr string) RemovedLayout {
	t.Helper()
	files := make(map[string]string)
	for p, body := range dirState(t, dir) {
		if !strings.HasSuffix(p, "/") {
			files[p] = body
		}
	}
	return RemovedLayout{Name: name, Files: files, WantErr: wantErr}
}

// Build writes the layout into a fresh temporary directory and
// returns its path.
func (l RemovedLayout) Build(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for name, body := range l.Files {
		p := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// Check fails the test unless err is a refusal naming this layout and
// dir still holds exactly what Build wrote, byte for byte.
func (l RemovedLayout) Check(t *testing.T, dir string, err error) {
	t.Helper()
	for _, want := range []string{l.WantErr, removedHint} {
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err = %v, want a refusal containing %q", l.Name, err, want)
		}
	}
	want := make(map[string]string)
	for name, body := range l.Files {
		want[name] = body
		for d := path.Dir(name); d != "."; d = path.Dir(d) {
			want[d+"/"] = ""
		}
	}
	if got := dirState(t, dir); !maps.Equal(got, want) {
		t.Errorf("%s: refusal modified the directory:\n got %q\nwant %q", l.Name, got, want)
	}
}

// dirState maps every entry under dir to its contents, keyed by
// slash-separated relative path; directories are keyed with a trailing
// slash and map to "". Two states compare equal exactly when the trees
// are byte-identical.
func dirState(t *testing.T, dir string) map[string]string {
	t.Helper()
	state := make(map[string]string)
	err := filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
		if err != nil || p == dir {
			return err
		}
		rel, err := filepath.Rel(dir, p)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			state[rel+"/"] = ""
			return nil
		}
		b, err := os.ReadFile(p)
		state[rel] = string(b)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return state
}
