package repo

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

func writeFile(t *testing.T, path string, size int) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, make([]byte, size), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestOpenFindsOnlyMseedFiles(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "NL", "HGN", "BHZ", "a.mseed"), 512)
	writeFile(t, filepath.Join(dir, "NL", "HGN", "BHZ", "b.MSEED"), 1024)
	writeFile(t, filepath.Join(dir, "NL", "c.msd"), 256)
	writeFile(t, filepath.Join(dir, "README.txt"), 99)
	writeFile(t, filepath.Join(dir, "x.mseed.bak"), 99)

	rp, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rp.Files) != 3 {
		t.Fatalf("found %d files, want 3: %+v", len(rp.Files), rp.Files)
	}
	// Sorted by URI, URIs are slash-separated and relative.
	if rp.Files[0].URI != "NL/HGN/BHZ/a.mseed" {
		t.Errorf("first URI = %q", rp.Files[0].URI)
	}
	if rp.TotalSize() != 512+1024+256 {
		t.Errorf("total size = %d", rp.TotalSize())
	}
}

func TestTouchDefaultsToNow(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "a.mseed")
	writeFile(t, p, 1)
	old := time.Now().Add(-time.Hour)
	if err := os.Chtimes(p, old, old); err != nil {
		t.Fatal(err)
	}
	if err := Touch(p, time.Time{}); err != nil {
		t.Fatal(err)
	}
	st, _ := os.Stat(p)
	if st.ModTime().Before(old.Add(30 * time.Minute)) {
		t.Errorf("touch did not advance mtime: %v", st.ModTime())
	}
}

func TestOpenMissingDir(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("expected error for missing directory")
	}
}

func TestOpenEmptyDirIsEmptySnapshot(t *testing.T) {
	rp, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if len(rp.Files) != 0 || rp.TotalSize() != 0 {
		t.Errorf("empty dir: %+v", rp)
	}
}
