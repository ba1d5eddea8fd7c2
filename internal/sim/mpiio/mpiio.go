// Package mpiio implements the MPI-IO layer on top of the simulated POSIX
// file system, routed through the Recorder⁺ tracing layer.
//
// Two behaviours matter for the paper's findings and are modelled here:
//
//  1. Consistency mapping. MPI_File_sync and MPI_File_close are the
//     synchronization operations of the MPI-IO consistency model (Table I).
//     They map onto fsync/close at the POSIX level and additionally publish
//     the process's buffered writes when the simulated file system runs in
//     MPI-IO mode.
//
//  2. Collective buffering (two-phase I/O). When a file view has been set,
//     collective reads/writes are aggregated: ranks ship their (offset,
//     data) pieces to rank 0, which performs the combined POSIX I/O. This is
//     the ROMIO optimization that makes PnetCDF's `flexible` test violate
//     MPI-IO semantics (§V-C1): after ncmpi_enddef's per-rank fill writes, a
//     view change triggers aggregation, so rank 0's combined write conflicts
//     with every other rank's earlier fill write — properly synchronized
//     under POSIX (the aggregation exchange orders them) but not under
//     MPI-IO semantics (no sync-barrier-sync construct).
//
// The aggregation exchange is issued through the traced MPI wrappers, so the
// resulting trace is self-contained: the temporal order the exchange creates
// is visible to the offline matcher the same way PnetCDF's own internal MPI
// calls are.
package mpiio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"verifyio/internal/recorder"
	"verifyio/internal/sim/mpi"
	"verifyio/internal/sim/posixfs"
	"verifyio/internal/trace"
)

// AMode is the MPI_File_open access mode.
type AMode int

// Access modes, combinable with |.
const (
	ModeRdonly AMode = 1 << iota
	ModeWronly
	ModeRdwr
	ModeCreate
	ModeExcl
	ModeAppend
	ModeDeleteOnClose
)

func (m AMode) String() string {
	var s string
	add := func(name string) {
		if s != "" {
			s += "|"
		}
		s += name
	}
	if m&ModeRdonly != 0 {
		add("MPI_MODE_RDONLY")
	}
	if m&ModeWronly != 0 {
		add("MPI_MODE_WRONLY")
	}
	if m&ModeRdwr != 0 {
		add("MPI_MODE_RDWR")
	}
	if m&ModeCreate != 0 {
		add("MPI_MODE_CREATE")
	}
	if m&ModeExcl != 0 {
		add("MPI_MODE_EXCL")
	}
	if m&ModeAppend != 0 {
		add("MPI_MODE_APPEND")
	}
	if m&ModeDeleteOnClose != 0 {
		add("MPI_MODE_DELETE_ON_CLOSE")
	}
	if s == "" {
		s = "0"
	}
	return s
}

// Config controls the MPI-IO implementation's optimizations — the knobs the
// ablation benchmarks flip.
type Config struct {
	// CollectiveBuffering enables two-phase aggregation for collective
	// data operations once a file view is set (ROMIO's cb_* behaviour).
	CollectiveBuffering bool
	// DataSieving enables read-modify-write sieving for non-contiguous
	// independent writes (modelled as a read of the surrounding region
	// before the write).
	DataSieving bool
}

// DefaultConfig matches a production ROMIO: collective buffering on.
func DefaultConfig() Config { return Config{CollectiveBuffering: true} }

// ErrClosed is returned when a closed file is used.
var ErrClosed = errors.New("mpiio: file is closed")

// File is an open MPI file handle.
type File struct {
	r    *recorder.Rank
	comm *mpi.Comm
	path string
	fd   int
	cfg  Config

	pos     int64
	viewSet bool
	viewDsp int64
	closed  bool
}

// Open is the traced, collective MPI_File_open. All members of comm must
// call it.
func Open(r *recorder.Rank, comm *mpi.Comm, path string, amode AMode, cfg Config) (*File, error) {
	f := &File{r: r, comm: comm, path: path, cfg: cfg}
	err := r.Record(trace.LayerMPIIO, "MPI_File_open", func() []string {
		return []string{comm.GID(), path, amode.String(), itoa(int64(f.fd))}
	}, func() error {
		flags := posixFlags(amode)
		fd, err := r.Open(path, flags)
		if err != nil {
			return err
		}
		f.fd = fd
		return nil
	})
	if err != nil {
		return nil, err
	}
	return f, nil
}

func posixFlags(amode AMode) posixfs.OpenFlag {
	var flags posixfs.OpenFlag
	switch {
	case amode&ModeRdwr != 0:
		flags = posixfs.ORdwr
	case amode&ModeWronly != 0:
		flags = posixfs.OWronly
	default:
		flags = posixfs.ORdonly
	}
	if amode&ModeCreate != 0 {
		flags |= posixfs.OCreate
	}
	if amode&ModeExcl != 0 {
		flags |= posixfs.OExcl
	}
	if amode&ModeAppend != 0 {
		flags |= posixfs.OAppend
	}
	return flags
}

// Path returns the file's path.
func (f *File) Path() string { return f.path }

// Comm returns the communicator the file was opened on.
func (f *File) Comm() *mpi.Comm { return f.comm }

// Fd returns the underlying POSIX descriptor (used by library layers that
// mix interfaces).
func (f *File) Fd() int { return f.fd }

// Close is the traced, collective MPI_File_close. It publishes buffered data
// (MPI_File_close is a synchronization operation of the MPI-IO model).
func (f *File) Close() error {
	if f.closed {
		return ErrClosed
	}
	return f.r.Record(trace.LayerMPIIO, "MPI_File_close", func() []string {
		return []string{itoa(int64(f.fd))}
	}, func() error {
		f.publish()
		f.closed = true
		return f.r.Close(f.fd)
	})
}

// Sync is the traced MPI_File_sync: flushes and publishes this process's
// writes. With open+close it forms the MPI-IO model's sync-op set.
func (f *File) Sync() error {
	if f.closed {
		return ErrClosed
	}
	return f.r.Record(trace.LayerMPIIO, "MPI_File_sync", func() []string {
		return []string{itoa(int64(f.fd))}
	}, func() error {
		f.publish()
		return f.r.Fsync(f.fd)
	})
}

// publish forces buffered data out under the file-system modes where plain
// fsync/close would not do it for us.
func (f *File) publish() {
	if f.r.FSProc().FS().Mode() == posixfs.ModeMPIIO {
		f.r.FSProc().Flush(f.path)
	}
}

// SetView is the traced, collective MPI_File_set_view. Setting a view is
// what arms collective buffering for subsequent collective data operations.
func (f *File) SetView(disp int64, etype, filetype string) error {
	if f.closed {
		return ErrClosed
	}
	return f.r.Record(trace.LayerMPIIO, "MPI_File_set_view", func() []string {
		return []string{itoa(int64(f.fd)), itoa(disp), etype, filetype}
	}, func() error {
		f.viewSet = true
		f.viewDsp = disp
		f.pos = 0
		return nil
	})
}

// FileSeek is the traced MPI_File_seek (individual file pointer).
func (f *File) FileSeek(off int64, whence int) error {
	if f.closed {
		return ErrClosed
	}
	return f.r.Record(trace.LayerMPIIO, "MPI_File_seek", func() []string {
		return []string{itoa(int64(f.fd)), itoa(off), itoa(int64(whence)), itoa(f.pos)}
	}, func() error {
		switch whence {
		case posixfs.SeekSet:
			f.pos = off
		case posixfs.SeekCur:
			f.pos += off
		case posixfs.SeekEnd:
			size, err := f.r.FSProc().FS().CommittedSize(f.path)
			if err != nil {
				return err
			}
			f.pos = size + off
		default:
			return fmt.Errorf("mpiio: bad whence %d", whence)
		}
		if f.pos < 0 {
			return fmt.Errorf("mpiio: negative file pointer")
		}
		return nil
	})
}

// WriteAt is the traced, independent MPI_File_write_at.
func (f *File) WriteAt(off int64, data []byte) error {
	if f.closed {
		return ErrClosed
	}
	return f.r.Record(trace.LayerMPIIO, "MPI_File_write_at", func() []string {
		return []string{itoa(int64(f.fd)), itoa(f.abs(off)), itoa(int64(len(data)))}
	}, func() error { return f.pwrite(f.abs(off), data) })
}

// ReadAt is the traced, independent MPI_File_read_at.
func (f *File) ReadAt(off int64, n int) ([]byte, error) {
	if f.closed {
		return nil, ErrClosed
	}
	var out []byte
	err := f.r.Record(trace.LayerMPIIO, "MPI_File_read_at", func() []string {
		return []string{itoa(int64(f.fd)), itoa(f.abs(off)), itoa(int64(n))}
	}, func() error {
		buf, err := f.r.Pread(f.fd, n, f.abs(off))
		out = buf
		return err
	})
	return out, err
}

// Write is the traced, independent MPI_File_write at the individual file
// pointer.
func (f *File) Write(data []byte) error {
	if f.closed {
		return ErrClosed
	}
	return f.r.Record(trace.LayerMPIIO, "MPI_File_write", func() []string {
		return []string{itoa(int64(f.fd)), itoa(int64(len(data)))}
	}, func() error {
		err := f.pwrite(f.abs(f.pos), data)
		if err == nil {
			f.pos += int64(len(data))
		}
		return err
	})
}

// Read is the traced, independent MPI_File_read at the individual file
// pointer.
func (f *File) Read(n int) ([]byte, error) {
	if f.closed {
		return nil, ErrClosed
	}
	var out []byte
	err := f.r.Record(trace.LayerMPIIO, "MPI_File_read", func() []string {
		return []string{itoa(int64(f.fd)), itoa(int64(n))}
	}, func() error {
		buf, err := f.r.Pread(f.fd, n, f.abs(f.pos))
		out = buf
		f.pos += int64(len(buf))
		return err
	})
	return out, err
}

// WriteAtAll is the traced, collective MPI_File_write_at_all.
func (f *File) WriteAtAll(off int64, data []byte) error {
	if f.closed {
		return ErrClosed
	}
	return f.r.Record(trace.LayerMPIIO, "MPI_File_write_at_all", func() []string {
		return []string{itoa(int64(f.fd)), itoa(f.abs(off)), itoa(int64(len(data)))}
	}, func() error { return f.collectiveWrite(f.abs(off), data) })
}

// WriteAll is the traced, collective MPI_File_write_all at the individual
// file pointer. Mixing WriteAll on some ranks with WriteAtAll on others is
// the PnetCDF ncmpi_wait implementation bug of §V-D; the runtime tolerates
// it (the aggregation exchange still pairs up) and the offline matcher
// flags it.
func (f *File) WriteAll(data []byte) error {
	if f.closed {
		return ErrClosed
	}
	return f.r.Record(trace.LayerMPIIO, "MPI_File_write_all", func() []string {
		return []string{itoa(int64(f.fd)), itoa(int64(len(data)))}
	}, func() error {
		err := f.collectiveWrite(f.abs(f.pos), data)
		if err == nil {
			f.pos += int64(len(data))
		}
		return err
	})
}

// ReadAtAll is the traced, collective MPI_File_read_at_all.
func (f *File) ReadAtAll(off int64, n int) ([]byte, error) {
	if f.closed {
		return nil, ErrClosed
	}
	var out []byte
	err := f.r.Record(trace.LayerMPIIO, "MPI_File_read_at_all", func() []string {
		return []string{itoa(int64(f.fd)), itoa(f.abs(off)), itoa(int64(n))}
	}, func() error {
		buf, err := f.collectiveRead(f.abs(off), n)
		out = buf
		return err
	})
	return out, err
}

// abs translates a view-relative offset to an absolute file offset.
func (f *File) abs(off int64) int64 {
	if f.viewSet {
		return f.viewDsp + off
	}
	return off
}

// aggregating reports whether collective buffering applies right now.
func (f *File) aggregating() bool { return f.cfg.CollectiveBuffering && f.viewSet }

// pwrite performs the POSIX write, with optional data sieving. Zero-length
// contributions (e.g. a non-root rank's share of a header write) issue no
// system call at all.
func (f *File) pwrite(off int64, data []byte) error {
	if len(data) == 0 {
		return nil
	}
	if f.cfg.DataSieving && len(data) > 0 {
		// Read-modify-write: sieving reads the enclosing region first.
		if _, err := f.r.Pread(f.fd, len(data), off); err != nil {
			return err
		}
	}
	_, err := f.r.Pwrite(f.fd, data, off)
	return err
}

// collectiveWrite implements the two-phase write: with aggregation armed,
// every rank ships (offset, data) to rank 0 (comm rank 0), which performs
// the combined write; a completion broadcast closes the exchange. Without
// aggregation each rank writes independently.
func (f *File) collectiveWrite(off int64, data []byte) error {
	if !f.aggregating() {
		return f.pwrite(off, data)
	}
	pieces, err := f.r.Gather(f.comm, 0, encodePiece(off, data))
	if err != nil {
		return err
	}
	if myCommRank(f.comm, f.r.Rank()) == 0 {
		type piece struct {
			off  int64
			data []byte
		}
		ps := make([]piece, 0, len(pieces))
		for _, raw := range pieces {
			o, d, err := decodePiece(raw)
			if err != nil {
				return err
			}
			ps = append(ps, piece{o, d})
		}
		sort.Slice(ps, func(i, j int) bool { return ps[i].off < ps[j].off })
		// Coalesce contiguous pieces into single writes — the whole point
		// of two-phase I/O.
		for i := 0; i < len(ps); {
			j := i + 1
			buf := append([]byte(nil), ps[i].data...)
			end := ps[i].off + int64(len(ps[i].data))
			for j < len(ps) && ps[j].off <= end {
				if e := ps[j].off + int64(len(ps[j].data)); e > end {
					buf = append(buf[:ps[j].off-ps[i].off], ps[j].data...)
					end = e
				}
				j++
			}
			if err := f.pwrite(ps[i].off, buf); err != nil {
				return err
			}
			i = j
		}
	}
	// Completion notification from the aggregator.
	_, err = f.r.Bcast(f.comm, 0, []byte{1})
	return err
}

// collectiveRead implements the two-phase read: rank 0 reads every rank's
// range and scatters the results.
func (f *File) collectiveRead(off int64, n int) ([]byte, error) {
	if !f.aggregating() {
		return f.r.Pread(f.fd, n, off)
	}
	pieces, err := f.r.Gather(f.comm, 0, encodePiece(off, make([]byte, n)))
	if err != nil {
		return nil, err
	}
	var parts [][]byte
	if myCommRank(f.comm, f.r.Rank()) == 0 {
		parts = make([][]byte, f.comm.Size())
		for i, raw := range pieces {
			o, d, err := decodePiece(raw)
			if err != nil {
				return nil, err
			}
			buf, err := f.r.Pread(f.fd, len(d), o)
			if err != nil {
				return nil, err
			}
			parts[i] = buf
		}
	}
	return f.r.Scatter(f.comm, 0, parts)
}

func myCommRank(c *mpi.Comm, worldRank int) int {
	for i, m := range c.Members() {
		if m == worldRank {
			return i
		}
	}
	return -1
}

func encodePiece(off int64, data []byte) []byte {
	buf := make([]byte, 8+len(data))
	binary.LittleEndian.PutUint64(buf, uint64(off))
	copy(buf[8:], data)
	return buf
}

func decodePiece(raw []byte) (int64, []byte, error) {
	if len(raw) < 8 {
		return 0, nil, fmt.Errorf("mpiio: malformed aggregation piece (%d bytes)", len(raw))
	}
	return int64(binary.LittleEndian.Uint64(raw)), raw[8:], nil
}

func itoa(v int64) string { return fmt.Sprint(v) }
