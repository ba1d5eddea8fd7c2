package match

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"

	"verifyio/internal/trace"
)

// fuzzBytes hands out the fuzz input a byte at a time, zeros once it runs
// out.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// mpiRows are the call table's MPI and MPI-IO rows.
var mpiRows = slices.DeleteFunc(slices.Clone(trace.Calls), func(c *trace.Call) bool {
	return !strings.HasPrefix(c.Name, "MPI_")
})

// hostile are values no rank, tag, count, index or status field can use:
// none is an int32 of -1 or more. (-1 is a receive's wildcard source or
// tag, and an index or outcount of MPI_UNDEFINED.)
var hostile = []string{"x", "", "4294967297", "-4294967297", "99999999999999999999", "-2", "-2147483648"}

// poisonable reports whether the scan must read field f of a record of row
// c, so that it must report the record when f is unusable, and picks a
// value that makes it unusable there: counts run to three requests, so an
// outcount of 4 or an index of 3 names none.
func poisonable(c *trace.Call, f trace.Field, pick int) (string, bool) {
	sends, recvs := c.Kind == trace.KindSend, c.Kind == trace.KindRecv
	of := func(extra ...string) string {
		vs := append(slices.Clone(hostile), extra...)
		return vs[pick%len(vs)]
	}
	switch f {
	case trace.Comm:
		switch {
		case sends:
			return of("comm-unknown"), true
		case c.Kind < trace.KindFile: // an MPI-IO open's is resolved
			return "", true
		}
	case trace.Peer:
		switch {
		case sends:
			return of("2", "-1"), true
		case recvs:
			return of(), true
		}
	case trace.Tag:
		if sends {
			return of("-1"), true
		}
		return of(), recvs
	case trace.Status:
		return of("-1"), sends || recvs
	case trace.Request:
		return "", c.Kind != trace.KindComplete
	case trace.NumRequests:
		return of("-7"), true
	case trace.OutCount:
		return of("-7", "4"), true
	case trace.Index:
		return of("-7", "3"), true
	case trace.NewComm, trace.Members:
		return "", true
	}
	return "", false
}

// FuzzScanRecords turns bytes into up to 48 records of the call table's MPI
// and MPI-IO rows on two ranks, each laid out by its row: counts of up to
// three requests, indices, peers, tags and request ids from small pools, so
// that ids collide and requests complete or not. A record may have one field
// the scan must read replaced by a hostile value. The scan must never panic;
// every poisoned record must be named by a MalformedRecord or
// DanglingRequest problem, and so must every non-blocking initiation that no
// completion names before its id is initiated again.
func FuzzScanRecords(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		tr := trace.New(2)
		var poisoned []trace.Ref
		for range 48 {
			if len(in) == 0 {
				break
			}
			b := in.next()
			rank, c := b&1, mpiRows[(b>>1)%len(mpiRows)]
			poison, pick := in.next(), in.next()
			var args []string
			counts := map[trace.Field]int{}
			var bad bool
			for i, e := range c.Elems {
				n := 1
				if e.By != 0 {
					n = counts[e.By]
				}
				for range n {
					for k := range e.Width() {
						v := fuzzValue(c, e.Field, k, &in, counts)
						if poison%8 == 1 && (poison/8)%len(c.Elems) == i && !bad {
							if pv, ok := poisonable(c, e.Field, pick); ok {
								v, bad = pv, true
							}
						}
						args = append(args, v)
					}
				}
			}
			tick := int64(2*len(tr.Ranks[rank]) + 1)
			layer := trace.LayerMPI
			if c.Kind >= trace.KindFile {
				layer = trace.LayerMPIIO
			}
			ref := tr.Append(trace.Record{Rank: rank, Func: c.Name, Layer: layer, Args: args, Tick: tick, Ret: tick + 1})
			if bad {
				poisoned = append(poisoned, ref)
			}
		}

		res := mustMatch(t, tr)
		reported := map[trace.Ref]bool{}
		for _, p := range res.Problems {
			if p.Kind == MalformedRecord || p.Kind == DanglingRequest {
				for _, ref := range p.Refs {
					reported[ref] = true
				}
			}
		}
		for _, ref := range poisoned {
			if !reported[ref] {
				t.Errorf("poisoned %s is named by no MalformedRecord or DanglingRequest problem: %v", tr.Record(ref), res.Problems)
			}
		}
		for _, ref := range abandoned(tr, poisoned) {
			if !reported[ref] {
				t.Errorf("%s is never completed, and named by no DanglingRequest or MalformedRecord problem: %v", tr.Record(ref), res.Problems)
			}
		}
	})
}

// fuzzValue draws the k-th argument of one value of field f of row c,
// noting counts for the runs they count. Every value is usable: a send's
// peer names a rank, a receive's may be MPI_ANY_SOURCE.
func fuzzValue(c *trace.Call, f trace.Field, k int, in *fuzzBytes, counts map[trace.Field]int) string {
	v := in.next()
	switch f {
	case trace.Comm:
		return "comm-world"
	case trace.Peer:
		if c.Kind == trace.KindSend {
			return strconv.Itoa(v % 2)
		}
		return strconv.Itoa(v%3 - 1)
	case trace.Root, trace.Tag:
		return strconv.Itoa(v % 3)
	case trace.Status:
		return strconv.Itoa(v%2 + k)
	case trace.Request:
		return fmt.Sprintf("req-%d", v%4)
	case trace.NumRequests:
		counts[f] = v % 4
		return strconv.Itoa(counts[f])
	case trace.OutCount:
		counts[f] = v % (counts[trace.NumRequests] + 1)
		return strconv.Itoa(counts[f])
	case trace.Index:
		return strconv.Itoa(v % max(counts[trace.NumRequests], 1))
	case trace.Flag:
		return strconv.Itoa(v % 2)
	case trace.NewComm:
		return fmt.Sprintf("comm-d%d", v%2)
	case trace.Members:
		return "0,1"
	}
	return strconv.Itoa(v % 16)
}

// abandoned lists the non-blocking initiations that no completion record of
// their rank names before a well-formed initiation reuses the id, or the
// rank ends. Poisoned initiations are malformed, so they neither count nor
// reuse an id.
func abandoned(tr *trace.Trace, poisoned []trace.Ref) []trace.Ref {
	var out []trace.Ref
	var calls trace.CallCache
	for _, recs := range tr.Ranks {
		open := map[string]trace.Ref{} // id -> initiation no completion named yet
		for i := range recs {
			rec := &recs[i]
			c := calls.Of(rec.Func)
			switch {
			case c.Kind == trace.KindComplete:
				for _, a := range rec.Args {
					delete(open, a)
				}
			case c.Has(trace.Request) && !slices.Contains(poisoned, rec.Ref()):
				req := rec.Arg(c.Pos(rec, trace.Request))
				if ref, ok := open[req]; ok {
					out = append(out, ref)
				}
				open[req] = rec.Ref()
			}
		}
		for _, ref := range open {
			out = append(out, ref)
		}
	}
	return out
}
