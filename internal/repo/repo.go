// Package repo models the external source datastore of the ETL process:
// a directory tree of mSEED files. It provides discovery (walking the
// tree), identity (stable file URIs), and freshness tracking (modification
// times), which is what the lazy-loading cache compares against when
// deciding whether an entry is stale.
package repo

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// File is one source file in the repository.
type File struct {
	// URI identifies the file; it is the path relative to the repository
	// root, using forward slashes on every platform.
	URI string
	// AbsPath is the absolute path on disk.
	AbsPath string
	Size    int64
	ModTime time.Time
}

// Repository is a snapshot of the files under a root directory.
type Repository struct {
	Root  string
	Files []File
}

// Open scans the directory tree under root and returns a snapshot of every
// mSEED file found (extension .mseed or .msd, case-insensitive), sorted by
// URI for deterministic processing order.
func Open(root string) (*Repository, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	var files []File
	err = filepath.WalkDir(abs, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			return nil
		}
		ext := strings.ToLower(filepath.Ext(path))
		if ext != ".mseed" && ext != ".msd" {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(abs, path)
		if err != nil {
			return err
		}
		files = append(files, File{
			URI:     filepath.ToSlash(rel),
			AbsPath: path,
			Size:    info.Size(),
			ModTime: info.ModTime(),
		})
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("repo: scan %s: %w", root, err)
	}
	sort.Slice(files, func(i, j int) bool { return files[i].URI < files[j].URI })
	return &Repository{Root: abs, Files: files}, nil
}

// TotalSize returns the summed byte size of all files in the snapshot.
func (r *Repository) TotalSize() int64 {
	var n int64
	for _, f := range r.Files {
		n += f.Size
	}
	return n
}

// Touch sets a file's modification time to now (or a given time), used by
// tests and the demo to simulate repository updates without changing
// content.
func Touch(path string, at time.Time) error {
	if at.IsZero() {
		at = time.Now()
	}
	return os.Chtimes(path, at, at)
}
