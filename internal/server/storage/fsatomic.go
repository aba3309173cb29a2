package storage

import (
	"os"
	"path/filepath"
)

// WriteFileAtomic writes name into dir via tmp + fsync + rename +
// directory fsync, so the file is either absent or complete — never
// torn — regardless of where a crash lands. The WAL commits its
// MANIFEST through it.
func WriteFileAtomic(dir, name string, body []byte) error {
	tmpPath := filepath.Join(dir, name+".tmp")
	tmp, err := os.OpenFile(tmpPath, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := tmp.Write(body); err != nil {
		tmp.Close()
		_ = os.Remove(tmpPath)
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		_ = os.Remove(tmpPath)
		return err
	}
	if err := tmp.Close(); err != nil {
		_ = os.Remove(tmpPath)
		return err
	}
	if err := os.Rename(tmpPath, filepath.Join(dir, name)); err != nil {
		_ = os.Remove(tmpPath)
		return err
	}
	return SyncDir(dir)
}

// SyncDir fsyncs a directory so renames and removals inside it are
// durable.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
