package posixfs

import (
	"fmt"
	"sort"
)

// Proc is one process's view of the file system: its open descriptors, file
// positions, and — under relaxed consistency modes — its not-yet-published
// write overlay per file.
type Proc struct {
	fs       *FS
	rank     int
	fds      map[int]*openFile
	overlays map[string]*overlay
	nextFD   int
}

type openFile struct {
	path   string
	pos    int64
	flags  OpenFlag
	closed bool
}

// overlay holds a process's unpublished writes to one file.
type overlay struct {
	extents     []extent // sorted by off, non-overlapping
	truncatedTo int64    // -1 when no local truncate pending
	localEOF    int64    // furthest local write end (≥ committed size at writes)
}

type extent struct {
	off  int64
	data []byte
}

func newOverlay() *overlay { return &overlay{truncatedTo: -1} }

// Rank reports which rank this view belongs to.
func (p *Proc) Rank() int { return p.rank }

// FS returns the shared store this view belongs to.
func (p *Proc) FS() *FS { return p.fs }

// Open opens path and returns a new file descriptor.
func (p *Proc) Open(path string, flags OpenFlag) (int, error) {
	_, err := p.fs.lookup(path, flags&OCreate != 0, flags&OExcl != 0, flags&OTrunc != 0)
	if err != nil {
		return -1, err
	}
	if flags&OTrunc != 0 {
		// A truncating open also discards this process's overlay.
		if ov := p.overlays[path]; ov != nil {
			ov.extents = nil
			ov.truncatedTo = 0
			ov.localEOF = 0
		}
	}
	fd := p.nextFD
	p.nextFD++
	p.fds[fd] = &openFile{path: path, flags: flags}
	return fd, nil
}

// Close closes fd. Under ModeSession this publishes the process's writes to
// the file (close-to-open consistency).
func (p *Proc) Close(fd int) error {
	of, err := p.file(fd)
	if err != nil {
		return err
	}
	if p.fs.mode == ModeSession {
		p.publish(of.path)
	}
	of.closed = true
	delete(p.fds, fd)
	return nil
}

// Fsync flushes fd. Under ModeCommit this is the commit operation that
// publishes the process's writes. Under strict POSIX it is a no-op for
// visibility (writes are already visible); it still validates fd.
func (p *Proc) Fsync(fd int) error {
	of, err := p.file(fd)
	if err != nil {
		return err
	}
	if p.fs.mode == ModeCommit || p.fs.mode == ModeMPIIO {
		p.publish(of.path)
	}
	_ = of
	return nil
}

// Flush unconditionally publishes this process's buffered writes to path.
// The MPI-IO layer maps MPI_File_sync / MPI_File_close onto it.
func (p *Proc) Flush(path string) {
	p.publish(path)
}

// Write writes data at the current position and advances it. With OAppend
// the position is first moved to the current end of file.
func (p *Proc) Write(fd int, data []byte) (int, error) {
	of, err := p.file(fd)
	if err != nil {
		return 0, err
	}
	if !of.flags.writable() {
		return 0, ErrReadOnly
	}
	if of.flags&OAppend != 0 {
		of.pos = p.visibleSize(of.path)
	}
	n, err := p.writeAt(of.path, data, of.pos)
	of.pos += int64(n)
	return n, err
}

// Pwrite writes data at off without moving the file position.
func (p *Proc) Pwrite(fd int, data []byte, off int64) (int, error) {
	of, err := p.file(fd)
	if err != nil {
		return 0, err
	}
	if !of.flags.writable() {
		return 0, ErrReadOnly
	}
	if off < 0 {
		return 0, ErrInvalid
	}
	return p.writeAt(of.path, data, off)
}

// Read reads up to len(dst) bytes at the current position and advances it.
func (p *Proc) Read(fd int, dst []byte) (int, error) {
	of, err := p.file(fd)
	if err != nil {
		return 0, err
	}
	if !of.flags.readable() {
		return 0, ErrWriteOnly
	}
	n := p.readAt(of.path, dst, of.pos)
	of.pos += int64(n)
	return n, nil
}

// Pread reads up to len(dst) bytes at off without moving the position.
func (p *Proc) Pread(fd int, dst []byte, off int64) (int, error) {
	of, err := p.file(fd)
	if err != nil {
		return 0, err
	}
	if !of.flags.readable() {
		return 0, ErrWriteOnly
	}
	if off < 0 {
		return 0, ErrInvalid
	}
	return p.readAt(of.path, dst, off), nil
}

// Writev writes the buffers back to back at the current position (vector
// I/O is scattered in memory but contiguous in the file).
func (p *Proc) Writev(fd int, bufs [][]byte) (int, error) {
	total := 0
	for _, b := range bufs {
		total += len(b)
	}
	flat := make([]byte, 0, total)
	for _, b := range bufs {
		flat = append(flat, b...)
	}
	return p.Write(fd, flat)
}

// Readv reads into buffers of the given lengths from the current position
// and returns the flattened data actually read.
func (p *Proc) Readv(fd int, lens []int) ([]byte, error) {
	total := 0
	for _, n := range lens {
		if n < 0 {
			return nil, ErrInvalid
		}
		total += n
	}
	buf := make([]byte, total)
	n, err := p.Read(fd, buf)
	return buf[:n], err
}

// Lseek repositions fd and returns the new offset.
func (p *Proc) Lseek(fd int, off int64, whence int) (int64, error) {
	of, err := p.file(fd)
	if err != nil {
		return 0, err
	}
	var base int64
	switch whence {
	case SeekSet:
		base = 0
	case SeekCur:
		base = of.pos
	case SeekEnd:
		base = p.visibleSize(of.path)
	default:
		return 0, ErrInvalid
	}
	np := base + off
	if np < 0 {
		return 0, ErrInvalid
	}
	of.pos = np
	return np, nil
}

// Ftruncate sets the file size.
func (p *Proc) Ftruncate(fd int, size int64) error {
	of, err := p.file(fd)
	if err != nil {
		return err
	}
	if !of.flags.writable() {
		return ErrReadOnly
	}
	if size < 0 {
		return ErrInvalid
	}
	if p.fs.mode == ModePOSIX {
		p.fs.mu.Lock()
		if f, ok := p.fs.files[of.path]; ok {
			f.data = resize(f.data, size)
		}
		p.fs.mu.Unlock()
		return nil
	}
	ov := p.overlay(of.path)
	ov.truncatedTo = size
	var kept []extent
	for _, e := range ov.extents {
		if e.off >= size {
			continue
		}
		if end := e.off + int64(len(e.data)); end > size {
			e.data = e.data[:size-e.off]
		}
		kept = append(kept, e)
	}
	ov.extents = kept
	ov.localEOF = size
	return nil
}

// Tell reports the current position of fd.
func (p *Proc) Tell(fd int) (int64, error) {
	of, err := p.file(fd)
	if err != nil {
		return 0, err
	}
	return of.pos, nil
}

// Appending reports whether fd was opened with OAppend.
func (p *Proc) Appending(fd int) bool {
	of, err := p.file(fd)
	return err == nil && of.flags&OAppend != 0
}

// Path reports the path fd refers to.
func (p *Proc) Path(fd int) (string, error) {
	of, err := p.file(fd)
	if err != nil {
		return "", err
	}
	return of.path, nil
}

// VisibleData returns what this process would read from path right now:
// committed data overlaid with its own unpublished writes.
func (p *Proc) VisibleData(path string) []byte {
	size := p.visibleSize(path)
	dst := make([]byte, size)
	p.readAt(path, dst, 0)
	return dst
}

func (p *Proc) file(fd int) (*openFile, error) {
	of, ok := p.fds[fd]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrBadFD, fd)
	}
	return of, nil
}

func (p *Proc) overlay(path string) *overlay {
	ov, ok := p.overlays[path]
	if !ok {
		ov = newOverlay()
		p.overlays[path] = ov
	}
	return ov
}

func (p *Proc) publish(path string) {
	if ov, ok := p.overlays[path]; ok {
		p.fs.publish(path, ov)
		delete(p.overlays, path)
	}
}

// visibleSize is the size this process observes: the committed size, the
// local truncate if pending, extended by local writes.
func (p *Proc) visibleSize(path string) int64 {
	size := p.fs.committedSizeLocked(path)
	if ov, ok := p.overlays[path]; ok {
		if ov.truncatedTo >= 0 {
			size = ov.truncatedTo
		}
		if ov.localEOF > size {
			size = ov.localEOF
		}
	}
	return size
}

func (p *Proc) writeAt(path string, data []byte, off int64) (int, error) {
	if len(data) == 0 {
		return 0, nil
	}
	if p.fs.mode == ModePOSIX {
		ov := newOverlay()
		ov.addExtent(off, data)
		p.fs.publish(path, ov)
		return len(data), nil
	}
	ov := p.overlay(path)
	ov.addExtent(off, data)
	if end := off + int64(len(data)); end > ov.localEOF {
		ov.localEOF = end
	}
	return len(data), nil
}

func (p *Proc) readAt(path string, dst []byte, off int64) int {
	if len(dst) == 0 {
		return 0
	}
	size := p.visibleSize(path)
	if off >= size {
		return 0
	}
	n := len(dst)
	if int64(n) > size-off {
		n = int(size - off)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = 0
	}
	// Committed bytes first (unless locally truncated below them)...
	limit := int64(-1)
	ov := p.overlays[path]
	if ov != nil && ov.truncatedTo >= 0 {
		limit = ov.truncatedTo
	}
	if limit < 0 || off < limit {
		cdst := dst
		if limit >= 0 && off+int64(len(cdst)) > limit {
			cdst = cdst[:limit-off]
		}
		p.fs.readCommitted(path, cdst, off)
	}
	// ...then this process's own unpublished writes on top.
	if ov != nil {
		for _, e := range ov.extents {
			eEnd := e.off + int64(len(e.data))
			if eEnd <= off || e.off >= off+int64(n) {
				continue
			}
			srcStart := int64(0)
			dstStart := e.off - off
			if dstStart < 0 {
				srcStart = -dstStart
				dstStart = 0
			}
			copy(dst[dstStart:], e.data[srcStart:])
		}
	}
	return n
}

// addExtent inserts [off, off+len(data)) into the overlay, keeping extents
// sorted and non-overlapping; newer data wins.
func (ov *overlay) addExtent(off int64, data []byte) {
	nd := make([]byte, len(data))
	copy(nd, data)
	ne := extent{off: off, data: nd}
	end := off + int64(len(nd))

	var out []extent
	for _, e := range ov.extents {
		eEnd := e.off + int64(len(e.data))
		switch {
		case eEnd <= off || e.off >= end:
			out = append(out, e) // disjoint
		default:
			// Overlap: keep the non-overlapped pieces of the old extent.
			if e.off < off {
				out = append(out, extent{off: e.off, data: e.data[:off-e.off]})
			}
			if eEnd > end {
				out = append(out, extent{off: end, data: e.data[end-e.off:]})
			}
		}
	}
	out = append(out, ne)
	sort.Slice(out, func(i, j int) bool { return out[i].off < out[j].off })
	ov.extents = out
}
