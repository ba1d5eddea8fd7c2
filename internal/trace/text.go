package trace

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
)

// WriteText renders the trace in a human-readable per-rank listing, the
// format `verifyio -dump` prints. Nesting depth is shown by indentation, so
// the I/O-stack structure (application call → library internals → POSIX) is
// visible at a glance:
//
//	# rank 0 (7 records)
//	[2] ncmpi_create(comm-world, data.nc, NC_CLOBBER)
//	[1]   MPI_File_open(comm-world, data.nc, ...)
//	[0]     open(data.nc, rw|creat, 3)
//
// Record order is completion order: a nested call appears before the call
// that issued it, with deeper indentation.
func WriteText(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	keys := make([]string, 0, len(t.Meta))
	for k := range t.Meta {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(bw, "# %s = %s\n", k, t.Meta[k])
	}
	for rank, recs := range t.Ranks {
		fmt.Fprintf(bw, "# rank %d (%d records)\n", rank, len(recs))
		for i := range recs {
			r := &recs[i]
			fmt.Fprintf(bw, "[%d]%s %s(%s)\n",
				r.Seq, strings.Repeat("  ", r.Depth()), r.Func, strings.Join(r.Args, ", "))
		}
	}
	return bw.Flush()
}
