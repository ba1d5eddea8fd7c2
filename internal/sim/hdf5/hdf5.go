// Package hdf5 implements a functional subset of parallel HDF5 on top of the
// simulated MPI-IO layer, routed through the Recorder⁺ tracing layer.
//
// The subset is chosen to reproduce the paper's HDF5 findings:
//
//   - H5Dwrite / H5Dread translate to MPI_File_write_at(_all) /
//     MPI_File_read_at(_all) on the dataset's file extent, so the
//     write → MPI_Barrier → read pattern of Fig. 6 produces exactly the
//     conflicting MPI-IO/POSIX operations VerifyIO flags: properly
//     synchronized under POSIX, a data race under MPI-IO semantics unless
//     H5Fflush (→ MPI_File_sync) brackets the barrier.
//
//   - H5Awrite performs an independent write of the attribute's header-area
//     extent from the calling rank. Tests that call H5Awrite from every
//     rank "collectively" (a common real-world pattern) therefore produce
//     same-offset write-write conflicts — the source of the HDF5 POSIX
//     races in the evaluation.
//
//   - Dataset extents are allocated deterministically in call order, so all
//     ranks agree on file offsets without central coordination, like a real
//     file format's layout rules.
//
// Hyperslab selections are supported on 1-D and 2-D dataspaces; a 2-D
// selection decomposes into one file extent per row, which is what makes
// tests in the shapesame style generate very large conflict counts.
package hdf5

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"verifyio/internal/recorder"
	"verifyio/internal/sim/mpi"
	"verifyio/internal/sim/mpiio"
	"verifyio/internal/sim/posixfs"
	"verifyio/internal/trace"
)

// Transfer is the data-transfer property (H5FD_MPIO_INDEPENDENT /
// H5FD_MPIO_COLLECTIVE).
type Transfer int

// Transfer modes.
const (
	Independent Transfer = iota
	Collective
)

func (t Transfer) String() string {
	if t == Collective {
		return "H5FD_MPIO_COLLECTIVE"
	}
	return "H5FD_MPIO_INDEPENDENT"
}

// Errors.
var (
	ErrNotFound = errors.New("hdf5: object not found")
	ErrExists   = errors.New("hdf5: object already exists")
	ErrBounds   = errors.New("hdf5: selection out of bounds")
)

// File-format layout constants. The header area holds attributes; dataset
// extents follow.
const (
	headerSize = 1024
	attrSlot   = 64
)

// fileMeta is the shared file-format metadata: where datasets and attributes
// live. It is keyed by (file system, path), playing the role the on-disk
// superblock plays for a real format; all ranks observe one consistent
// layout.
type fileMeta struct {
	mu       sync.Mutex
	datasets map[string]*extent
	attrs    map[string]*extent
	nextData int64
	nextAttr int64
}

type extent struct {
	off  int64
	dims []int64
}

func (e *extent) size() int64 {
	s := int64(1)
	for _, d := range e.dims {
		s *= d
	}
	return s
}

var (
	metaMu  sync.Mutex
	metaTab = map[metaKey]*fileMeta{}
)

type metaKey struct {
	fs   *posixfs.FS
	path string
}

func metaFor(fs *posixfs.FS, path string, create bool) (*fileMeta, error) {
	metaMu.Lock()
	defer metaMu.Unlock()
	k := metaKey{fs, path}
	m, ok := metaTab[k]
	if !ok {
		if !create {
			return nil, fmt.Errorf("%w: file %s has no HDF5 metadata", ErrNotFound, path)
		}
		m = &fileMeta{
			datasets: make(map[string]*extent),
			attrs:    make(map[string]*extent),
			nextData: headerSize,
		}
		metaTab[k] = m
	}
	return m, nil
}

// File is an open HDF5 file.
type File struct {
	r    *recorder.Rank
	mf   *mpiio.File
	meta *fileMeta
	path string
}

// Create is the traced, collective H5Fcreate with an MPI-IO (fapl_mpio)
// access property.
func Create(r *recorder.Rank, comm *mpi.Comm, path string, cfg mpiio.Config) (*File, error) {
	f := &File{r: r, path: path}
	err := r.Record(trace.LayerHDF5, "H5Fcreate", func() []string {
		return []string{path, "H5F_ACC_TRUNC", comm.GID()}
	}, func() error {
		mf, err := mpiio.Open(r, comm, path, mpiio.ModeRdwr|mpiio.ModeCreate, cfg)
		if err != nil {
			return err
		}
		f.mf = mf
		m, err := metaFor(r.FSProc().FS(), path, true)
		if err != nil {
			return err
		}
		f.meta = m
		return nil
	})
	if err != nil {
		return nil, err
	}
	return f, nil
}

// OpenFile is the traced, collective H5Fopen.
func OpenFile(r *recorder.Rank, comm *mpi.Comm, path string, cfg mpiio.Config) (*File, error) {
	f := &File{r: r, path: path}
	err := r.Record(trace.LayerHDF5, "H5Fopen", func() []string {
		return []string{path, "H5F_ACC_RDWR", comm.GID()}
	}, func() error {
		mf, err := mpiio.Open(r, comm, path, mpiio.ModeRdwr, cfg)
		if err != nil {
			return err
		}
		f.mf = mf
		m, err := metaFor(r.FSProc().FS(), path, false)
		if err != nil {
			return err
		}
		f.meta = m
		return nil
	})
	if err != nil {
		return nil, err
	}
	return f, nil
}

// Path returns the file's path.
func (f *File) Path() string { return f.path }

// Close is the traced H5Fclose (collective), which closes the MPI file.
func (f *File) Close() error {
	return f.r.Record(trace.LayerHDF5, "H5Fclose", func() []string {
		return []string{f.path}
	}, func() error { return f.mf.Close() })
}

// Flush is the traced H5Fflush: the call the right-hand side of Fig. 6 adds.
// It maps to MPI_File_sync, the MPI-IO synchronization operation.
func (f *File) Flush() error {
	return f.r.Record(trace.LayerHDF5, "H5Fflush", func() []string {
		return []string{f.path, "H5F_SCOPE_GLOBAL"}
	}, func() error { return f.mf.Sync() })
}

// Dataset is an open HDF5 dataset backed by a contiguous file extent.
type Dataset struct {
	f    *File
	name string
	ext  *extent
}

// CreateDataset is the traced H5Dcreate2. All ranks must create datasets in
// the same order so the deterministic extent allocation agrees.
func (f *File) CreateDataset(name string, dims ...int64) (*Dataset, error) {
	d := &Dataset{f: f, name: name}
	err := f.r.Record(trace.LayerHDF5, "H5Dcreate2", func() []string {
		return []string{f.path, name, fmt.Sprint(dims)}
	}, func() error {
		if len(dims) == 0 || len(dims) > 2 {
			return fmt.Errorf("hdf5: %d-dimensional dataspaces are not supported", len(dims))
		}
		f.meta.mu.Lock()
		defer f.meta.mu.Unlock()
		if e, ok := f.meta.datasets[name]; ok {
			// Another rank of this collective call already allocated it.
			d.ext = e
			return nil
		}
		e := &extent{off: f.meta.nextData, dims: append([]int64(nil), dims...)}
		f.meta.datasets[name] = e
		f.meta.nextData += e.size()
		d.ext = e
		return nil
	})
	if err != nil {
		return nil, err
	}
	return d, nil
}

// OpenDataset is the traced H5Dopen2.
func (f *File) OpenDataset(name string) (*Dataset, error) {
	d := &Dataset{f: f, name: name}
	err := f.r.Record(trace.LayerHDF5, "H5Dopen2", func() []string {
		return []string{f.path, name}
	}, func() error {
		f.meta.mu.Lock()
		defer f.meta.mu.Unlock()
		e, ok := f.meta.datasets[name]
		if !ok {
			return fmt.Errorf("%w: dataset %s", ErrNotFound, name)
		}
		d.ext = e
		return nil
	})
	if err != nil {
		return nil, err
	}
	return d, nil
}

// Close is the traced H5Dclose.
func (d *Dataset) Close() error {
	return d.f.r.Record(trace.LayerHDF5, "H5Dclose", func() []string {
		return []string{d.name}
	}, func() error { return nil })
}

// Hyperslab is a regular selection: start and count per dimension.
type Hyperslab struct {
	Start []int64
	Count []int64
}

// All selects the entire dataspace.
func (d *Dataset) All() Hyperslab {
	hs := Hyperslab{Start: make([]int64, len(d.ext.dims)), Count: append([]int64(nil), d.ext.dims...)}
	return hs
}

// rowExtents flattens the selection into contiguous file extents (one per
// selected row for 2-D spaces).
func (d *Dataset) rowExtents(hs Hyperslab) ([][2]int64, error) {
	if len(hs.Start) != len(d.ext.dims) || len(hs.Count) != len(d.ext.dims) {
		return nil, fmt.Errorf("%w: selection rank %d vs dataspace rank %d", ErrBounds, len(hs.Start), len(d.ext.dims))
	}
	for i := range hs.Start {
		if hs.Start[i] < 0 || hs.Count[i] < 0 || hs.Start[i]+hs.Count[i] > d.ext.dims[i] {
			return nil, fmt.Errorf("%w: dim %d start %d count %d extent %d", ErrBounds, i, hs.Start[i], hs.Count[i], d.ext.dims[i])
		}
	}
	switch len(d.ext.dims) {
	case 1:
		return [][2]int64{{d.ext.off + hs.Start[0], hs.Count[0]}}, nil
	default:
		rowLen := d.ext.dims[1]
		out := make([][2]int64, 0, hs.Count[0])
		for r := int64(0); r < hs.Count[0]; r++ {
			off := d.ext.off + (hs.Start[0]+r)*rowLen + hs.Start[1]
			out = append(out, [2]int64{off, hs.Count[1]})
		}
		return out, nil
	}
}

// Write is the traced H5Dwrite over the given selection. Collective
// transfers require a selection that flattens to a single contiguous extent
// (all ranks must make the same number of collective MPI calls); independent
// transfers accept any selection.
func (d *Dataset) Write(xfer Transfer, hs Hyperslab, data []byte) error {
	return d.f.r.Record(trace.LayerHDF5, "H5Dwrite", func() []string {
		return []string{d.name, xfer.String(), fmt.Sprint(hs.Start), fmt.Sprint(hs.Count)}
	}, func() error {
		exts, err := d.rowExtents(hs)
		if err != nil {
			return err
		}
		need := int64(0)
		for _, e := range exts {
			need += e[1]
		}
		if int64(len(data)) < need {
			return fmt.Errorf("%w: %d bytes for %d-byte selection", ErrBounds, len(data), need)
		}
		if xfer == Collective {
			if len(exts) != 1 {
				return fmt.Errorf("hdf5: collective transfer requires a contiguous selection (%d extents)", len(exts))
			}
			return d.f.mf.WriteAtAll(exts[0][0], data[:exts[0][1]])
		}
		pos := int64(0)
		for _, e := range exts {
			if err := d.f.mf.WriteAt(e[0], data[pos:pos+e[1]]); err != nil {
				return err
			}
			pos += e[1]
		}
		return nil
	})
}

// Read is the traced H5Dread over the given selection.
func (d *Dataset) Read(xfer Transfer, hs Hyperslab) ([]byte, error) {
	var out []byte
	err := d.f.r.Record(trace.LayerHDF5, "H5Dread", func() []string {
		return []string{d.name, xfer.String(), fmt.Sprint(hs.Start), fmt.Sprint(hs.Count)}
	}, func() error {
		exts, err := d.rowExtents(hs)
		if err != nil {
			return err
		}
		if xfer == Collective {
			if len(exts) != 1 {
				return fmt.Errorf("hdf5: collective transfer requires a contiguous selection (%d extents)", len(exts))
			}
			buf, err := d.f.mf.ReadAtAll(exts[0][0], int(exts[0][1]))
			out = buf
			return err
		}
		for _, e := range exts {
			buf, err := d.f.mf.ReadAt(e[0], int(e[1]))
			if err != nil {
				return err
			}
			out = append(out, buf...)
		}
		return nil
	})
	return out, err
}

// Attr is an open attribute, stored in the file's header area.
type Attr struct {
	f    *File
	name string
	ext  *extent
}

// CreateAttr is the traced H5Acreate2. Attributes occupy fixed header slots.
func (f *File) CreateAttr(name string, size int64) (*Attr, error) {
	a := &Attr{f: f, name: name}
	err := f.r.Record(trace.LayerHDF5, "H5Acreate2", func() []string {
		return []string{f.path, name, itoa(size)}
	}, func() error {
		if size <= 0 || size > attrSlot {
			return fmt.Errorf("hdf5: attribute size %d outside (0,%d]", size, attrSlot)
		}
		f.meta.mu.Lock()
		defer f.meta.mu.Unlock()
		if e, ok := f.meta.attrs[name]; ok {
			a.ext = e
			return nil
		}
		if f.meta.nextAttr+attrSlot > headerSize {
			return fmt.Errorf("hdf5: header area full")
		}
		e := &extent{off: f.meta.nextAttr, dims: []int64{size}}
		f.meta.attrs[name] = e
		f.meta.nextAttr += attrSlot
		a.ext = e
		return nil
	})
	if err != nil {
		return nil, err
	}
	return a, nil
}

// OpenAttr is the traced H5Aopen.
func (f *File) OpenAttr(name string) (*Attr, error) {
	a := &Attr{f: f, name: name}
	err := f.r.Record(trace.LayerHDF5, "H5Aopen", func() []string {
		return []string{f.path, name}
	}, func() error {
		f.meta.mu.Lock()
		defer f.meta.mu.Unlock()
		e, ok := f.meta.attrs[name]
		if !ok {
			return fmt.Errorf("%w: attribute %s", ErrNotFound, name)
		}
		a.ext = e
		return nil
	})
	if err != nil {
		return nil, err
	}
	return a, nil
}

// Write is the traced H5Awrite: an independent header-area write from the
// calling rank. Calling it from every rank concurrently produces the
// same-offset write-write conflicts behind the evaluation's HDF5 POSIX
// races.
func (a *Attr) Write(data []byte) error {
	return a.f.r.Record(trace.LayerHDF5, "H5Awrite", func() []string {
		return []string{a.name, itoa(int64(len(data)))}
	}, func() error {
		if int64(len(data)) > a.ext.size() {
			return fmt.Errorf("%w: %d bytes into %d-byte attribute", ErrBounds, len(data), a.ext.size())
		}
		return a.f.mf.WriteAt(a.ext.off, data)
	})
}

// Read is the traced H5Aread.
func (a *Attr) Read() ([]byte, error) {
	var out []byte
	err := a.f.r.Record(trace.LayerHDF5, "H5Aread", func() []string {
		return []string{a.name, itoa(a.ext.size())}
	}, func() error {
		buf, err := a.f.mf.ReadAt(a.ext.off, int(a.ext.size()))
		out = buf
		return err
	})
	return out, err
}

// Close is the traced H5Aclose.
func (a *Attr) Close() error {
	return a.f.r.Record(trace.LayerHDF5, "H5Aclose", func() []string {
		return []string{a.name}
	}, func() error { return nil })
}

// Datasets lists the names of the file's datasets (sorted), the information
// a reopening reader recovers from the file format.
func (f *File) Datasets() []string {
	f.meta.mu.Lock()
	defer f.meta.mu.Unlock()
	out := make([]string, 0, len(f.meta.datasets))
	for name := range f.meta.datasets {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// DatasetDims returns the dimensions of a dataset without opening it.
func (f *File) DatasetDims(name string) ([]int64, bool) {
	f.meta.mu.Lock()
	defer f.meta.mu.Unlock()
	e, ok := f.meta.datasets[name]
	if !ok {
		return nil, false
	}
	return append([]int64(nil), e.dims...), true
}

// ResetMetadata clears the shared layout registry. Tests and the corpus
// runner call it between executions so file layouts from one run cannot
// leak into the next.
func ResetMetadata() {
	metaMu.Lock()
	defer metaMu.Unlock()
	metaTab = map[metaKey]*fileMeta{}
}

func itoa(v int64) string { return fmt.Sprint(v) }
