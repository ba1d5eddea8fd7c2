// Package posixfs implements an in-memory parallel file system with the
// POSIX interface and a pluggable consistency model.
//
// The paper's motivation is that emerging HPC file systems (UnifyFS, BurstFS,
// GfarmBB, ...) keep the POSIX *interface* but relax POSIX *consistency*.
// This package simulates exactly that: every process (MPI rank) gets its own
// view (Proc) of a shared store (FS). Under ModePOSIX writes are immediately
// visible to all processes; under the relaxed modes writes stay in a
// process-local overlay until a mode-specific synchronization operation
// publishes them:
//
//   - ModeCommit:  a commit operation (fsync, as in UnifyFS) publishes.
//   - ModeSession: closing the file publishes (close-to-open consistency).
//   - ModeMPIIO:   only an explicit Flush (issued by MPI_File_sync or
//     MPI_File_close in the MPI-IO layer) publishes.
//
// This lets example programs demonstrate the silent data corruption the
// paper warns about: an execution VerifyIO flags as improperly synchronized
// really does read stale bytes when replayed on a relaxed-mode FS, while a
// properly synchronized one does not.
package posixfs

import (
	"errors"
	"fmt"
	"sync"
)

// Mode selects the consistency model the file system provides.
type Mode int

// Supported consistency modes.
const (
	// ModePOSIX provides strong POSIX consistency: writes are globally
	// visible as soon as the write call returns.
	ModePOSIX Mode = iota
	// ModeCommit provides commit consistency: writes become globally
	// visible when the writer issues fsync (the commit operation).
	ModeCommit
	// ModeSession provides session (close-to-open) consistency: writes
	// become globally visible when the writer closes the file.
	ModeSession
	// ModeMPIIO buffers writes until an explicit Flush, the behaviour the
	// MPI-IO layer maps MPI_File_sync and MPI_File_close onto.
	ModeMPIIO
)

var modeNames = map[Mode]string{
	ModePOSIX:   "posix",
	ModeCommit:  "commit",
	ModeSession: "session",
	ModeMPIIO:   "mpi-io",
}

func (m Mode) String() string {
	if s, ok := modeNames[m]; ok {
		return s
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Errors returned by file operations.
var (
	ErrNotExist  = errors.New("posixfs: no such file")
	ErrExist     = errors.New("posixfs: file exists")
	ErrBadFD     = errors.New("posixfs: bad file descriptor")
	ErrReadOnly  = errors.New("posixfs: file not open for writing")
	ErrWriteOnly = errors.New("posixfs: file not open for reading")
	ErrInvalid   = errors.New("posixfs: invalid argument")
)

// Open flags, combinable with |.
type OpenFlag int

const (
	ORdonly OpenFlag = 0x0
	OWronly OpenFlag = 0x1
	ORdwr   OpenFlag = 0x2
	OCreate OpenFlag = 0x40
	OTrunc  OpenFlag = 0x200
	OAppend OpenFlag = 0x400
	OExcl   OpenFlag = 0x80

	accessMask OpenFlag = 0x3
)

func (f OpenFlag) readable() bool { return f&accessMask != OWronly }
func (f OpenFlag) writable() bool { return f&accessMask != ORdonly }

// String renders flags the way the tracer records them ("rw|creat|trunc").
func (f OpenFlag) String() string {
	var s string
	switch f & accessMask {
	case ORdonly:
		s = "r"
	case OWronly:
		s = "w"
	default:
		s = "rw"
	}
	if f&OCreate != 0 {
		s += "|creat"
	}
	if f&OTrunc != 0 {
		s += "|trunc"
	}
	if f&OAppend != 0 {
		s += "|append"
	}
	if f&OExcl != 0 {
		s += "|excl"
	}
	return s
}

// Seek whence values.
const (
	SeekSet = 0
	SeekCur = 1
	SeekEnd = 2
)

// FS is the shared store: the "disk" every process sees after publication.
type FS struct {
	mode Mode

	mu    sync.Mutex
	files map[string]*file
}

type file struct {
	data []byte // committed (globally visible) contents
}

// New creates an empty file system with the given consistency mode.
func New(mode Mode) *FS {
	return &FS{mode: mode, files: make(map[string]*file)}
}

// Mode reports the configured consistency mode.
func (fs *FS) Mode() Mode { return fs.mode }

// Proc returns a process-local view for the given rank. Each Proc must only
// be used from a single goroutine (its rank); the FS itself is safe for
// concurrent use by many Procs.
func (fs *FS) Proc(rank int) *Proc {
	return &Proc{
		fs:       fs,
		rank:     rank,
		fds:      make(map[int]*openFile),
		overlays: make(map[string]*overlay),
		nextFD:   3, // 0/1/2 are conventionally stdio
	}
}

// CommittedData returns a copy of the globally visible contents of path.
// Test helpers and the example programs use it to check what "the disk"
// holds, independent of any process overlay.
func (fs *FS) CommittedData(path string) ([]byte, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[path]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotExist, path)
	}
	out := make([]byte, len(f.data))
	copy(out, f.data)
	return out, nil
}

// CommittedSize returns the globally visible size of path.
func (fs *FS) CommittedSize(path string) (int64, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[path]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNotExist, path)
	}
	return int64(len(f.data)), nil
}

// Unlink removes path from the committed namespace. Open descriptors keep
// working on the orphaned contents (POSIX semantics); a subsequent create
// produces a fresh file.
func (fs *FS) Unlink(path string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.files[path]; !ok {
		return fmt.Errorf("%w: %s", ErrNotExist, path)
	}
	delete(fs.files, path)
	return nil
}

// Stat reports the committed size of path.
func (fs *FS) Stat(path string) (int64, error) {
	return fs.CommittedSize(path)
}

// lookup returns the file for path, creating it when create is set.
func (fs *FS) lookup(path string, create, excl, trunc bool) (*file, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[path]
	if !ok {
		if !create {
			return nil, fmt.Errorf("%w: %s", ErrNotExist, path)
		}
		f = &file{}
		fs.files[path] = f
		return f, nil
	}
	if excl {
		return nil, fmt.Errorf("%w: %s", ErrExist, path)
	}
	if trunc {
		f.data = f.data[:0]
	}
	return f, nil
}

// publish merges a process overlay into the committed store.
func (fs *FS) publish(path string, ov *overlay) {
	if ov == nil || len(ov.extents) == 0 && ov.truncatedTo < 0 {
		return
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[path]
	if !ok {
		f = &file{}
		fs.files[path] = f
	}
	if ov.truncatedTo >= 0 {
		f.data = resize(f.data, ov.truncatedTo)
	}
	for _, e := range ov.extents {
		end := e.off + int64(len(e.data))
		if int64(len(f.data)) < end {
			f.data = resize(f.data, end)
		}
		copy(f.data[e.off:end], e.data)
	}
}

// readCommitted copies committed bytes [off, off+len(dst)) into dst and
// returns how many bytes were available.
func (fs *FS) readCommitted(path string, dst []byte, off int64) int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[path]
	if !ok || off >= int64(len(f.data)) {
		return 0
	}
	return copy(dst, f.data[off:])
}

func (fs *FS) committedSizeLocked(path string) int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if f, ok := fs.files[path]; ok {
		return int64(len(f.data))
	}
	return 0
}

func resize(b []byte, n int64) []byte {
	if int64(len(b)) >= n {
		return b[:n]
	}
	out := make([]byte, n)
	copy(out, b)
	return out
}
