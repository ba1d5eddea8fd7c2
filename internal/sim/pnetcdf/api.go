package pnetcdf

import (
	"fmt"

	"verifyio/internal/trace"
)

// Typed and flexible public API variants, mapping onto the common put/get
// paths. Variables are byte-element arrays; the type suffix only changes the
// recorded function name (see the package comment).

// PutVaraIntAll is the traced ncmpi_put_vara_int_all.
func (f *File) PutVaraIntAll(v *Var, start, count []int64, data []byte) error {
	return f.collectivePut("ncmpi_put_vara_int_all", v, start, count, data, false)
}

// PutVar1TextAll is the traced ncmpi_put_var1_text_all: a single-element
// collective write — the null_args call of §V-B2. Every rank that calls it
// with the same index writes the same file location.
func (f *File) PutVar1TextAll(v *Var, index []int64, data byte) error {
	count := make([]int64, len(index))
	for i := range count {
		count[i] = 1
	}
	return f.collectivePut("ncmpi_put_var1_text_all", v, index, count, []byte{data}, false)
}

// PutVarUcharAll is the traced ncmpi_put_var_uchar_all: writes the whole
// variable — the test_erange call of §V-B2.
func (f *File) PutVarUcharAll(v *Var, data []byte) error {
	start, count := v.wholeSel()
	return f.collectivePut("ncmpi_put_var_uchar_all", v, start, count, data, false)
}

// PutVaraAll is the traced flexible ncmpi_put_vara_all (MPI-datatype
// argument in real PnetCDF). The flexible path modifies the MPI file view
// before writing, arming collective buffering — the behaviour behind the
// flexible test's MPI-IO violation (§V-C1, Fig. 5).
func (f *File) PutVaraAll(v *Var, start, count []int64, data []byte) error {
	return f.collectivePut("ncmpi_put_vara_all", v, start, count, data, true)
}

// GetVaraIntAll is the traced ncmpi_get_vara_int_all.
func (f *File) GetVaraIntAll(v *Var, start, count []int64) ([]byte, error) {
	return f.collectiveGet("ncmpi_get_vara_int_all", v, start, count, false)
}

// PutVaraInt is the traced independent ncmpi_put_vara_int (requires
// independent data mode).
func (f *File) PutVaraInt(v *Var, start, count []int64, data []byte) error {
	return f.independentPut("ncmpi_put_vara_int", v, start, count, data)
}

// IputVara is the traced non-blocking ncmpi_iput_vara_<type>: the operation
// is queued and performed by ncmpi_wait / ncmpi_wait_all.
func (f *File) IputVara(xtype string, v *Var, start, count []int64, data []byte) (string, error) {
	op := &pendingOp{
		v:     v,
		start: append([]int64(nil), start...),
		count: append([]int64(nil), count...),
		data:  append([]byte(nil), data...),
	}
	fn := "ncmpi_iput_vara_" + xtype
	err := f.r.Record(trace.LayerPnetCDF, fn, func() []string {
		return []string{v.name, fmt.Sprint(start), fmt.Sprint(count), op.req}
	}, func() error {
		if f.defMode {
			return fmt.Errorf("%w: %s", ErrDefineMode, fn)
		}
		op.req = fmt.Sprintf("ncreq-%d.%d", f.r.Rank(), f.nextReq)
		f.nextReq++
		f.pending = append(f.pending, op)
		return nil
	})
	if err != nil {
		return "", err
	}
	return op.req, nil
}

// WaitAll is the traced ncmpi_wait_all: completes every pending request with
// uniform collective writes — the correct implementation path.
func (f *File) WaitAll() error {
	return f.r.Record(trace.LayerPnetCDF, "ncmpi_wait_all", func() []string {
		args := []string{itoa(int64(len(f.pending)))}
		for _, op := range f.pending {
			args = append(args, op.req)
		}
		return args
	}, func() error {
		ops := f.pending
		f.pending = nil
		for _, op := range ops {
			exts, err := op.v.extents(op.start, op.count)
			if err != nil {
				return err
			}
			pos := int64(0)
			for _, e := range exts {
				if err := f.mf.WriteAtAll(e[0], op.data[pos:pos+e[1]]); err != nil {
					return err
				}
				pos += e[1]
			}
		}
		return nil
	})
}

// Wait is the traced ncmpi_wait, reproducing the implementation bug of §V-D:
// rank 0 completes requests with MPI_File_write_at_all while every other
// rank takes a code path that issues MPI_File_write_all — mismatched
// collective calls that VerifyIO's matcher reports.
func (f *File) Wait() error {
	return f.r.Record(trace.LayerPnetCDF, "ncmpi_wait", func() []string {
		args := []string{itoa(int64(len(f.pending)))}
		for _, op := range f.pending {
			args = append(args, op.req)
		}
		return args
	}, func() error {
		ops := f.pending
		f.pending = nil
		rank0 := commRank(f.comm, f.r.Rank()) == 0
		for _, op := range ops {
			exts, err := op.v.extents(op.start, op.count)
			if err != nil {
				return err
			}
			pos := int64(0)
			for _, e := range exts {
				if rank0 {
					err = f.mf.WriteAtAll(e[0], op.data[pos:pos+e[1]])
				} else {
					if err = f.mf.FileSeek(e[0], 0); err != nil {
						return err
					}
					err = f.mf.WriteAll(op.data[pos : pos+e[1]])
				}
				if err != nil {
					return err
				}
				pos += e[1]
			}
		}
		return nil
	})
}

// InqVarid is the traced ncmpi_inq_varid.
func (f *File) InqVarid(name string) (*Var, error) {
	var out *Var
	err := f.r.Record(trace.LayerPnetCDF, "ncmpi_inq_varid", func() []string {
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

// Name returns the variable's name.
func (v *Var) Name() string { return v.name }

// Size returns the variable's total element count.
func (v *Var) Size() int64 { return v.size() }
