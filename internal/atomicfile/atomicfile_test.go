package atomicfile

import (
	"os"
	"path/filepath"
	"testing"
)

func readFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// assertNoTemp fails if a *.tmp-* file is left in dir.
func assertNoTemp(t *testing.T, dir string) {
	t.Helper()
	left, err := filepath.Glob(filepath.Join(dir, "*.tmp-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Errorf("temporary files left behind: %v", left)
	}
}

func TestWriteCreates(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "slot.json")
	if err := Write(path, []byte("hello"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, path); got != "hello" {
		t.Errorf("content = %q, want %q", got, "hello")
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Mode().Perm() != 0o644 {
		t.Errorf("mode = %v, want 0644", fi.Mode().Perm())
	}
	assertNoTemp(t, dir)
}

func TestWriteOverwrites(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "slot.json")
	if err := os.WriteFile(path, []byte("old content, longer than the new"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Write(path, []byte("new"), 0o600); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, path); got != "new" {
		t.Errorf("content = %q, want %q", got, "new")
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Mode().Perm() != 0o600 {
		t.Errorf("mode = %v, want 0600", fi.Mode().Perm())
	}
	assertNoTemp(t, dir)
}

// TestWriteFailureKeepsOld: when the final rename fails (the target is
// a non-empty directory), the old content stays and the temporary file
// is cleaned up.
func TestWriteFailureKeepsOld(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "slot")
	if err := os.Mkdir(path, 0o755); err != nil {
		t.Fatal(err)
	}
	keep := filepath.Join(path, "old.json")
	if err := os.WriteFile(keep, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Write(path, []byte("new"), 0o644); err == nil {
		t.Fatal("Write over a non-empty directory succeeded")
	}
	if got := readFile(t, keep); got != "old" {
		t.Errorf("old content = %q, want %q", got, "old")
	}
	assertNoTemp(t, dir)
}

// TestWriteMissingDir: a write into a directory that does not exist
// fails without creating anything.
func TestWriteMissingDir(t *testing.T) {
	dir := t.TempDir()
	if err := Write(filepath.Join(dir, "absent", "slot.json"), []byte("x"), 0o644); err == nil {
		t.Fatal("Write into a missing directory succeeded")
	}
	assertNoTemp(t, dir)
}
