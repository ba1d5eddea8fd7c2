package recorder

import (
	"verifyio/internal/sim/posixfs"
	"verifyio/internal/trace"
)

// Traced POSIX wrappers. Each records its arguments in the order its row of
// the call table in package trace gives.
//
// Offsets are deliberately NOT recorded for read/write/fread/fwrite — those
// POSIX functions have no offset argument, so the detector must reconstruct
// positions from open/lseek/fseek history exactly as the paper describes
// (§IV-B, the (FP, EOF) tracking). The one exception is a write through an
// append-mode handle (see appendPos).

// Open is the traced open(2).
func (r *Rank) Open(path string, flags posixfs.OpenFlag) (int, error) {
	return record(r, trace.LayerPOSIX, "open", func() (int, error) {
		return r.fs.Open(path, flags)
	}, func(fd int) []string {
		return []string{path, flags.String(), itoa(int64(fd))}
	})
}

// Close is the traced close(2).
func (r *Rank) Close(fd int) error {
	return r.Record(trace.LayerPOSIX, "close", func() []string {
		return []string{itoa(int64(fd))}
	}, func() error { return r.fs.Close(fd) })
}

// Fsync is the traced fsync(2) — the commit operation under commit
// consistency.
func (r *Rank) Fsync(fd int) error {
	return r.Record(trace.LayerPOSIX, "fsync", func() []string {
		return []string{itoa(int64(fd))}
	}, func() error { return r.fs.Fsync(fd) })
}

// Read is the traced read(2); it returns the bytes read. The recorded
// access size is the requested count — the call argument, which is what the
// tracer captures and the conflict detector consumes (§IV-B) — keeping the
// trace independent of scheduling-dependent short reads.
func (r *Rank) Read(fd int, count int) ([]byte, error) {
	buf := make([]byte, count)
	n, err := record(r, trace.LayerPOSIX, "read", func() (int, error) {
		return r.fs.Read(fd, buf)
	}, func(n int) []string {
		return []string{itoa(int64(fd)), itoa(int64(count))}
	})
	return buf[:n], err
}

// Write is the traced write(2).
func (r *Rank) Write(fd int, data []byte) (int, error) {
	return record(r, trace.LayerPOSIX, "write", func() (int, error) {
		return r.fs.Write(fd, data)
	}, func(n int) []string {
		return r.appendPos([]string{itoa(int64(fd)), itoa(int64(len(data)))}, fd, n)
	})
}

// appendPos appends to a write's args, when fd is in append mode, the
// position its n bytes landed at: the end of the file, which other ranks may
// have moved, so the replay cannot rebuild it from this rank's records.
func (r *Rank) appendPos(args []string, fd, n int) []string {
	if !r.fs.Appending(fd) {
		return args
	}
	pos, _ := r.fs.Tell(fd)
	return append(args, itoa(pos-int64(n)))
}

// Pread is the traced pread(2).
func (r *Rank) Pread(fd int, count int, off int64) ([]byte, error) {
	buf := make([]byte, count)
	n, err := record(r, trace.LayerPOSIX, "pread", func() (int, error) {
		return r.fs.Pread(fd, buf, off)
	}, func(n int) []string {
		return []string{itoa(int64(fd)), itoa(int64(count)), itoa(off)}
	})
	return buf[:n], err
}

// Pwrite is the traced pwrite(2).
func (r *Rank) Pwrite(fd int, data []byte, off int64) (int, error) {
	return record(r, trace.LayerPOSIX, "pwrite", func() (int, error) {
		return r.fs.Pwrite(fd, data, off)
	}, func(n int) []string {
		return []string{itoa(int64(fd)), itoa(int64(len(data))), itoa(off)}
	})
}

// Lseek is the traced lseek(2).
func (r *Rank) Lseek(fd int, off int64, whence int) (int64, error) {
	return record(r, trace.LayerPOSIX, "lseek", func() (int64, error) {
		return r.fs.Lseek(fd, off, whence)
	}, func(pos int64) []string {
		return []string{itoa(int64(fd)), itoa(off), trace.WhenceName(whence), itoa(pos)}
	})
}

// Ftruncate is the traced ftruncate(2).
func (r *Rank) Ftruncate(fd int, size int64) error {
	return r.Record(trace.LayerPOSIX, "ftruncate", func() []string {
		return []string{itoa(int64(fd)), itoa(size)}
	}, func() error { return r.fs.Ftruncate(fd, size) })
}

// Writev is the traced writev(2). The file range is contiguous at the
// current position (vector I/O scatters in memory, not in the file).
func (r *Rank) Writev(fd int, bufs [][]byte) (int, error) {
	return record(r, trace.LayerPOSIX, "writev", func() (int, error) {
		return r.fs.Writev(fd, bufs)
	}, func(n int) []string {
		args := []string{itoa(int64(fd)), itoa(int64(len(bufs)))}
		for _, b := range bufs {
			args = append(args, itoa(int64(len(b))))
		}
		return r.appendPos(args, fd, n)
	})
}

// Readv is the traced readv(2).
func (r *Rank) Readv(fd int, lens []int) ([]byte, error) {
	return record(r, trace.LayerPOSIX, "readv", func() ([]byte, error) {
		return r.fs.Readv(fd, lens)
	}, func(out []byte) []string {
		args := []string{itoa(int64(fd)), itoa(int64(len(lens)))}
		for _, n := range lens {
			args = append(args, itoa(int64(n)))
		}
		return args
	})
}

// Unlink is the traced unlink(2). The conflict detector retires the path's
// file identity: accesses to a later file created at the same path are a
// different file and must not be compared against the unlinked one.
func (r *Rank) Unlink(path string) error {
	return r.Record(trace.LayerPOSIX, "unlink", func() []string {
		return []string{path}
	}, func() error { return r.fs.FS().Unlink(path) })
}

// Stat is the traced stat(2); it returns the committed file size.
func (r *Rank) Stat(path string) (int64, error) {
	return record(r, trace.LayerPOSIX, "stat", func() (int64, error) {
		return r.fs.FS().Stat(path)
	}, func(size int64) []string {
		return []string{path, itoa(size)}
	})
}

// Stream is a traced FILE* handle.
type Stream struct {
	r  *Rank
	st *posixfs.Stream
}

// Fopen is the traced fopen(3).
func (r *Rank) Fopen(path, mode string) (*Stream, error) {
	st, err := record(r, trace.LayerPOSIX, "fopen", func() (*posixfs.Stream, error) {
		return r.fs.Fopen(path, mode)
	}, func(st *posixfs.Stream) []string {
		id := int64(-1)
		if st != nil {
			id = int64(st.ID())
		}
		return []string{path, mode, itoa(id)}
	})
	if err != nil {
		return nil, err
	}
	return &Stream{r: r, st: st}, nil
}

// Fwrite is the traced fwrite(3).
func (s *Stream) Fwrite(data []byte, size, count int) (int, error) {
	return record(s.r, trace.LayerPOSIX, "fwrite", func() (int, error) {
		return s.st.Fwrite(data, size, count)
	}, func(n int) []string {
		args := []string{itoa(int64(s.st.ID())), itoa(int64(size)), itoa(int64(count))}
		return s.r.appendPos(args, s.st.ID(), n*size)
	})
}

// Fread is the traced fread(3). The recorded item count is the requested
// count (the call argument), like the other read wrappers.
func (s *Stream) Fread(size, count int) ([]byte, error) {
	buf := make([]byte, size*count)
	n, err := record(s.r, trace.LayerPOSIX, "fread", func() (int, error) {
		return s.st.Fread(buf, size, count)
	}, func(n int) []string {
		return []string{itoa(int64(s.st.ID())), itoa(int64(size)), itoa(int64(count))}
	})
	return buf[:n*size], err
}

// Fseek is the traced fseek(3).
func (s *Stream) Fseek(off int64, whence int) error {
	pos := int64(-1)
	return s.r.Record(trace.LayerPOSIX, "fseek", func() []string {
		return []string{itoa(int64(s.st.ID())), itoa(off), trace.WhenceName(whence), itoa(pos)}
	}, func() error {
		err := s.st.Fseek(off, whence)
		if err == nil {
			pos, _ = s.st.Ftell()
		}
		return err
	})
}

// Fclose is the traced fclose(3).
func (s *Stream) Fclose() error {
	return s.r.Record(trace.LayerPOSIX, "fclose", func() []string {
		return []string{itoa(int64(s.st.ID()))}
	}, func() error { return s.st.Fclose() })
}
