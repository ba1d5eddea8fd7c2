// Package netcdf implements a functional subset of parallel NetCDF-4 on top
// of the simulated HDF5 substrate (NetCDF-4's real backend), routed through
// the Recorder⁺ tracing layer.
//
// The subset reproduces the paper's NetCDF finding (§V-B1): high-level calls
// like nc_put_var_schar write the *entire variable* from the calling rank by
// invoking H5Dwrite, which invokes MPI_File_write_at. A test that calls
// nc_put_var_schar concurrently from several ranks (parallel5) therefore
// writes the same offsets from every rank — a write-write data race even
// under POSIX, attributable to application-level misuse because the call
// chain shows the conflicting pwrites rooted at the application's
// nc_put_var_schar calls.
//
// Variables are byte-element arrays: the typed API variants differ only in
// the recorded function name, which is what the verification workflow
// consumes. This simplification does not affect any traced behaviour.
package netcdf

import (
	"errors"
	"fmt"
	"strings"

	"verifyio/internal/recorder"
	"verifyio/internal/sim/hdf5"
	"verifyio/internal/sim/mpi"
	"verifyio/internal/sim/mpiio"
	"verifyio/internal/trace"
)

// Errors.
var (
	ErrDefineMode = errors.New("netcdf: operation invalid in define mode")
	ErrNotFound   = errors.New("netcdf: not found")
)

// File is an open NetCDF dataset.
type File struct {
	r    *recorder.Rank
	hf   *hdf5.File
	comm *mpi.Comm

	defMode bool
	dims    []dim
	vars    []*Var
}

type dim struct {
	name string
	len  int64
}

// Var is a defined variable.
type Var struct {
	f      *File
	id     int
	name   string
	dimids []int
	ds     *hdf5.Dataset
	xfer   hdf5.Transfer
}

// CreatePar is the traced nc_create_par: creates a NetCDF-4 file backed by
// parallel HDF5.
func CreatePar(r *recorder.Rank, comm *mpi.Comm, path string, cfg mpiio.Config) (*File, error) {
	f := &File{r: r, comm: comm, defMode: true}
	err := r.Record(trace.LayerNetCDF, "nc_create_par", func() []string {
		return []string{path, "NC_NETCDF4|NC_MPIIO", comm.GID()}
	}, func() error {
		hf, err := hdf5.Create(r, comm, path, cfg)
		if err != nil {
			return err
		}
		f.hf = hf
		return nil
	})
	if err != nil {
		return nil, err
	}
	return f, nil
}

// OpenPar is the traced nc_open_par: reopens a NetCDF-4 file, recovering the
// variable table from the underlying HDF5 datasets ("var:<name>").
func OpenPar(r *recorder.Rank, comm *mpi.Comm, path string, cfg mpiio.Config) (*File, error) {
	f := &File{r: r, comm: comm, defMode: false}
	err := r.Record(trace.LayerNetCDF, "nc_open_par", func() []string {
		return []string{path, "NC_NOWRITE|NC_MPIIO", comm.GID()}
	}, func() error {
		hf, err := hdf5.OpenFile(r, comm, path, cfg)
		if err != nil {
			return err
		}
		f.hf = hf
		for _, name := range hf.Datasets() {
			if !strings.HasPrefix(name, "var:") {
				continue
			}
			dims, _ := hf.DatasetDims(name)
			var dimids []int
			for _, d := range dims {
				f.dims = append(f.dims, dim{name: fmt.Sprintf("dim%d", len(f.dims)), len: d})
				dimids = append(dimids, len(f.dims)-1)
			}
			ds, err := hf.OpenDataset(name)
			if err != nil {
				return err
			}
			f.vars = append(f.vars, &Var{f: f, id: len(f.vars),
				name: strings.TrimPrefix(name, "var:"), dimids: dimids, ds: ds,
				xfer: hdf5.Independent})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return f, nil
}

// InqVarid is the traced nc_inq_varid.
func (f *File) InqVarid(name string) (*Var, error) {
	var out *Var
	err := f.r.Record(trace.LayerNetCDF, "nc_inq_varid", func() []string {
		id := int64(-1)
		if out != nil {
			id = int64(out.id)
		}
		return []string{name, itoa(id)}
	}, func() error {
		for _, v := range f.vars {
			if v.name == name {
				out = v
				return nil
			}
		}
		return fmt.Errorf("%w: variable %s", ErrNotFound, name)
	})
	return out, err
}

// Vars returns the defined variables in definition order.
func (f *File) Vars() []*Var { return f.vars }

// DefDim is the traced nc_def_dim.
func (f *File) DefDim(name string, length int64) (int, error) {
	id := -1
	err := f.r.Record(trace.LayerNetCDF, "nc_def_dim", func() []string {
		return []string{name, itoa(length), itoa(int64(id))}
	}, func() error {
		if !f.defMode {
			return fmt.Errorf("netcdf: nc_def_dim outside define mode")
		}
		f.dims = append(f.dims, dim{name, length})
		id = len(f.dims) - 1
		return nil
	})
	return id, err
}

// DefVar is the traced nc_def_var. The HDF5 dataset is created at enddef.
func (f *File) DefVar(name, xtype string, dimids ...int) (*Var, error) {
	v := &Var{f: f, name: name, dimids: dimids, xfer: hdf5.Independent}
	err := f.r.Record(trace.LayerNetCDF, "nc_def_var", func() []string {
		return []string{name, xtype, fmt.Sprint(dimids), itoa(int64(v.id))}
	}, func() error {
		if !f.defMode {
			return fmt.Errorf("netcdf: nc_def_var outside define mode")
		}
		if len(dimids) == 0 || len(dimids) > 2 {
			return fmt.Errorf("netcdf: %d-dimensional variables not supported", len(dimids))
		}
		for _, d := range dimids {
			if d < 0 || d >= len(f.dims) {
				return fmt.Errorf("%w: dim id %d", ErrNotFound, d)
			}
		}
		v.id = len(f.vars)
		f.vars = append(f.vars, v)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return v, nil
}

// EndDef is the traced nc_enddef: leaves define mode and materializes every
// variable as an HDF5 dataset (collective).
func (f *File) EndDef() error {
	return f.r.Record(trace.LayerNetCDF, "nc_enddef", func() []string {
		return []string{itoa(int64(len(f.vars)))}
	}, func() error {
		if !f.defMode {
			return fmt.Errorf("netcdf: nc_enddef outside define mode")
		}
		f.defMode = false
		for _, v := range f.vars {
			dims := make([]int64, len(v.dimids))
			for i, d := range v.dimids {
				dims[i] = f.dims[d].len
			}
			ds, err := f.hf.CreateDataset("var:"+v.name, dims...)
			if err != nil {
				return err
			}
			v.ds = ds
		}
		return nil
	})
}

// VarParAccess is the traced nc_var_par_access: selects collective or
// independent transfers for the variable.
func (f *File) VarParAccess(v *Var, collective bool) error {
	return f.r.Record(trace.LayerNetCDF, "nc_var_par_access", func() []string {
		mode := "NC_INDEPENDENT"
		if collective {
			mode = "NC_COLLECTIVE"
		}
		return []string{v.name, mode}
	}, func() error {
		if collective {
			v.xfer = hdf5.Collective
		} else {
			v.xfer = hdf5.Independent
		}
		return nil
	})
}

// PutAttText is the traced nc_put_att_text. NetCDF-4 attribute writes are
// collective; the underlying HDF5 metadata write is performed by rank 0
// (the metadata-cache behaviour), so concurrent collective put_att calls do
// not conflict with each other.
func (f *File) PutAttText(v *Var, name string, value []byte) error {
	return f.r.Record(trace.LayerNetCDF, "nc_put_att_text", func() []string {
		return []string{attTarget(v), name, itoa(int64(len(value)))}
	}, func() error {
		a, err := f.hf.CreateAttr(attKey(v, name), int64(len(value)))
		if err != nil {
			return err
		}
		if f.r.Rank() == 0 {
			if err := a.Write(value); err != nil {
				return err
			}
		}
		return a.Close()
	})
}

// GetAttText is the traced nc_get_att_text; every calling rank reads the
// attribute from the file.
func (f *File) GetAttText(v *Var, name string) ([]byte, error) {
	var out []byte
	err := f.r.Record(trace.LayerNetCDF, "nc_get_att_text", func() []string {
		return []string{attTarget(v), name, itoa(int64(len(out)))}
	}, func() error {
		a, err := f.hf.OpenAttr(attKey(v, name))
		if err != nil {
			return err
		}
		buf, err := a.Read()
		if err != nil {
			return err
		}
		out = buf
		return a.Close()
	})
	return out, err
}

func attTarget(v *Var) string {
	if v == nil {
		return "NC_GLOBAL"
	}
	return v.name
}

func attKey(v *Var, name string) string {
	return "att:" + attTarget(v) + ":" + name
}

// Sync is the traced nc_sync (flushes via H5Fflush → MPI_File_sync).
func (f *File) Sync() error {
	return f.r.Record(trace.LayerNetCDF, "nc_sync", nil, func() error {
		return f.hf.Flush()
	})
}

// Close is the traced nc_close.
func (f *File) Close() error {
	return f.r.Record(trace.LayerNetCDF, "nc_close", nil, func() error {
		return f.hf.Close()
	})
}

// dimsOf returns the variable's extent per dimension.
func (v *Var) dimsOf() []int64 {
	out := make([]int64, len(v.dimids))
	for i, d := range v.dimids {
		out[i] = v.f.dims[d].len
	}
	return out
}

func (v *Var) size() int64 {
	s := int64(1)
	for _, d := range v.dimsOf() {
		s *= d
	}
	return s
}

func (f *File) checkDataMode() error {
	if f.defMode {
		return fmt.Errorf("%w", ErrDefineMode)
	}
	return nil
}

// putVar writes the whole variable from the calling rank.
func (f *File) putVar(fn string, v *Var, data []byte) error {
	return f.r.Record(trace.LayerNetCDF, fn, func() []string {
		return []string{v.name, itoa(v.size())}
	}, func() error {
		if err := f.checkDataMode(); err != nil {
			return err
		}
		if int64(len(data)) < v.size() {
			return fmt.Errorf("netcdf: %d bytes for %d-element variable %s", len(data), v.size(), v.name)
		}
		return v.ds.Write(v.xfer, v.ds.All(), data[:v.size()])
	})
}

// putVara writes a subarray.
func (f *File) putVara(fn string, v *Var, start, count []int64, data []byte) error {
	return f.r.Record(trace.LayerNetCDF, fn, func() []string {
		return []string{v.name, fmt.Sprint(start), fmt.Sprint(count)}
	}, func() error {
		if err := f.checkDataMode(); err != nil {
			return err
		}
		return v.ds.Write(v.xfer, hdf5.Hyperslab{Start: start, Count: count}, data)
	})
}

// getVara reads a subarray.
func (f *File) getVara(fn string, v *Var, start, count []int64) ([]byte, error) {
	var out []byte
	err := f.r.Record(trace.LayerNetCDF, fn, func() []string {
		return []string{v.name, fmt.Sprint(start), fmt.Sprint(count)}
	}, func() error {
		if err := f.checkDataMode(); err != nil {
			return err
		}
		buf, err := v.ds.Read(v.xfer, hdf5.Hyperslab{Start: start, Count: count})
		out = buf
		return err
	})
	return out, err
}

// Typed API variants. Variables are byte-element arrays; the variants differ
// in the recorded function name only (see the package comment).

// PutVarSchar is the traced nc_put_var_schar — the parallel5 call.
func (f *File) PutVarSchar(v *Var, data []byte) error { return f.putVar("nc_put_var_schar", v, data) }

// PutVaraInt is the traced nc_put_vara_int.
func (f *File) PutVaraInt(v *Var, start, count []int64, data []byte) error {
	return f.putVara("nc_put_vara_int", v, start, count, data)
}

// GetVaraInt is the traced nc_get_vara_int.
func (f *File) GetVaraInt(v *Var, start, count []int64) ([]byte, error) {
	return f.getVara("nc_get_vara_int", v, start, count)
}

func itoa(v int64) string { return fmt.Sprint(v) }
