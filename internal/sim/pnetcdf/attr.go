package pnetcdf

import (
	"fmt"

	"verifyio/internal/trace"
)

// Attributes are header data: they live in the reserved header region and
// are materialized when rank 0 writes the header at ncmpi_enddef (real
// PnetCDF behaviour — only one process writes the file header; the others
// participate in the collective with empty contributions).

type attr struct {
	varid int // -1 for global attributes
	name  string
	value []byte
}

// GlobalAttr is the varid marker for global (file-level) attributes.
const GlobalAttr = -1

// PutAttText is the traced ncmpi_put_att_text (define mode only). v may be
// nil for a global attribute.
func (f *File) PutAttText(v *Var, name string, value []byte) error {
	return f.r.Record(trace.LayerPnetCDF, "ncmpi_put_att_text", func() []string {
		return []string{varName(v), name, itoa(int64(len(value)))}
	}, func() error {
		if !f.defMode {
			return fmt.Errorf("%w: ncmpi_put_att_text", ErrDataMode)
		}
		id := GlobalAttr
		if v != nil {
			id = v.id
		}
		for i := range f.attrs {
			if f.attrs[i].varid == id && f.attrs[i].name == name {
				f.attrs[i].value = append([]byte(nil), value...)
				return nil
			}
		}
		f.attrs = append(f.attrs, attr{varid: id, name: name, value: append([]byte(nil), value...)})
		return nil
	})
}

// GetAttText is the traced ncmpi_get_att_text.
func (f *File) GetAttText(v *Var, name string) ([]byte, error) {
	var out []byte
	err := f.r.Record(trace.LayerPnetCDF, "ncmpi_get_att_text", func() []string {
		return []string{varName(v), name, itoa(int64(len(out)))}
	}, func() error {
		id := GlobalAttr
		if v != nil {
			id = v.id
		}
		for i := range f.attrs {
			if f.attrs[i].varid == id && f.attrs[i].name == name {
				out = append([]byte(nil), f.attrs[i].value...)
				return nil
			}
		}
		return fmt.Errorf("%w: attribute %s", ErrNotFound, name)
	})
	return out, err
}

func varName(v *Var) string {
	if v == nil {
		return "NC_GLOBAL"
	}
	return v.name
}

// headerBlob serializes the header (dims, vars, attrs) into the reserved
// region; deterministic across ranks so rank 0's write represents everyone's
// view.
func (f *File) headerBlob() ([]byte, error) {
	blob := []byte("CDF5")
	for _, d := range f.dims {
		blob = append(blob, []byte(fmt.Sprintf("|d:%s=%d", d.name, d.len))...)
	}
	for _, v := range f.vars {
		blob = append(blob, []byte(fmt.Sprintf("|v:%s@%d%v", v.name, v.off, v.dims))...)
	}
	for _, a := range f.attrs {
		blob = append(blob, []byte(fmt.Sprintf("|a:%d/%s=%q", a.varid, a.name, a.value))...)
	}
	if int64(len(blob)) > headerBytes {
		return nil, fmt.Errorf("pnetcdf: header (%d bytes) exceeds the reserved %d-byte region", len(blob), headerBytes)
	}
	return blob, nil
}

// writeHeader is the collective header write inside enddef: comm rank 0
// contributes the serialized header, everyone else an empty piece.
func (f *File) writeHeader() error {
	blob, err := f.headerBlob()
	if err != nil {
		return err
	}
	if commRank(f.comm, f.r.Rank()) != 0 {
		blob = nil
	}
	return f.mf.WriteAtAll(0, blob)
}

// readHeader is the per-process header read at ncmpi_open.
func (f *File) readHeader() error {
	_, err := f.mf.ReadAt(0, int(headerBytes))
	return err
}
