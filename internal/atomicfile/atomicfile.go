// Package atomicfile replaces a file's contents atomically: the data
// is written to a temporary file in the target's directory and
// renamed into place, so a concurrent reader never observes a partial
// write and a failed write leaves the existing file untouched.
package atomicfile

import (
	"os"
	"path/filepath"
)

// Write replaces path's contents with data and sets its mode to perm.
// The temporary file is named <base>.tmp-<random> next to path and is
// removed on every failure, leaving the previous contents in place.
func Write(path string, data []byte, perm os.FileMode) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Chmod(perm); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
