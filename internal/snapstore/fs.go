package snapstore

import (
	"io"
	"os"
	"path/filepath"
	"sort"
)

// FS is the filesystem surface the store needs. Production code uses OS;
// the crash matrix in this package's tests substitutes the test-only MemFS
// and FaultFS (memfs_test.go), so every byte of the write sequence can be
// interrupted and every sync made to lie.
type FS interface {
	// Create opens name for writing, truncating any existing file.
	Create(name string) (WFile, error)
	// Open opens name for reading.
	Open(name string) (RFile, error)
	// Rename atomically replaces newname with oldname.
	Rename(oldname, newname string) error
	// Remove deletes a file.
	Remove(name string) error
	// ReadDir lists the file names in dir (no directories), in any order.
	ReadDir(dir string) ([]string, error)
	// SyncDir makes prior Create/Rename/Remove in dir durable.
	SyncDir(dir string) error
	// MkdirAll creates dir and parents as needed.
	MkdirAll(dir string) error
}

// WFile is a writable snapshot file: sequential writes, one fsync, close.
type WFile interface {
	io.Writer
	Sync() error
	Close() error
}

// RFile is a readable snapshot file.
type RFile interface {
	io.ReaderAt
	io.Closer
	Size() (int64, error)
}

// Mapper is the optional capability of an RFile to memory-map itself.
// OS files implement it on unix; Open falls back to a read when absent.
type Mapper interface {
	// Map returns the file's contents as a read-only mapping and the
	// function that releases it. The data must not be written through.
	Map() ([]byte, func() error, error)
}

// OS is the real filesystem.
var OS FS = osFS{}

type osFS struct{}

func (osFS) Create(name string) (WFile, error) {
	f, err := os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Open(name string) (RFile, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	return &osRFile{f: f}, nil
}

func (osFS) Rename(oldname, newname string) error { return os.Rename(oldname, newname) }
func (osFS) Remove(name string) error             { return os.Remove(name) }
func (osFS) MkdirAll(dir string) error            { return os.MkdirAll(dir, 0o755) }

func (osFS) ReadDir(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(filepath.Clean(dir))
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// osRFile adapts *os.File to RFile (and, on unix, to Mapper; see the
// build-tagged mmap files).
type osRFile struct {
	f *os.File
}

func (r *osRFile) ReadAt(p []byte, off int64) (int, error) { return r.f.ReadAt(p, off) }
func (r *osRFile) Close() error                            { return r.f.Close() }

func (r *osRFile) Size() (int64, error) {
	st, err := r.f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}
