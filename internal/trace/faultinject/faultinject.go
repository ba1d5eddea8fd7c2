// Package faultinject systematically damages encoded VerifyIO traces to
// prove the ingestion pipeline is resilient: whatever a crashed job, a
// half-written file or a flipped bit produces, Decode and ReadDir must never
// panic, never allocate beyond their configured budget, and always return a
// classified trace.DecodeError (or, in tolerate mode, a salvaged prefix).
//
// The mutation corpus is generated from trace.Layout, so truncations land
// exactly on every decode section boundary (header, metadata, string table,
// per-rank record streams) and varint bombs land exactly on the size-bearing
// fields (counts, depths, string-table indices). The same corpus seeds the
// native go-fuzz targets in package trace.
package faultinject

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"slices"

	"verifyio/internal/trace"
)

// Case is one corrupted variant of an encoded trace.
type Case struct {
	// Name describes the mutation ("truncate@meta:end", "bomb@depth", ...).
	Name string
	// Data is the mutated encoding.
	Data []byte
}

// bombValue is the payload of a varint bomb: a size field claiming ~4.6
// exabytes. Every counter it lands on must be rejected by a limit, not
// allocated.
const bombValue = uint64(1) << 62

// Corpus generates the full mutation set for one encoded trace: boundary
// truncations, varint bombs, string-index corruption and bit flips. It works
// on compressed encodings too (layout-directed mutations then degrade to
// stride-based ones, which is exactly what exercises the DEFLATE error
// paths).
func Corpus(data []byte) []Case {
	var cases []Case
	cases = append(cases, Truncations(data)...)
	cases = append(cases, Bombs(data)...)
	cases = append(cases, BitFlips(data, 7)...)
	return cases
}

// Truncations cuts the encoding at every decode section boundary — and one
// byte before each, to land mid-field — plus a byte-stride sweep so
// compressed payloads (whose structure is invisible without inflating) are
// chopped everywhere too.
func Truncations(data []byte) []Case {
	cuts := map[int64]string{}
	if spans, err := trace.Layout(data); err == nil {
		for _, s := range spans {
			label := s.Name
			if s.Rank >= 0 {
				label = fmt.Sprintf("%s[r%d", s.Name, s.Rank)
				if s.Index >= 0 {
					label += fmt.Sprintf(",i%d", s.Index)
				}
				label += "]"
			}
			cuts[s.End] = label + ":end"
			if s.End > 0 {
				cuts[s.End-1] = label + ":end-1"
			}
		}
	}
	// Stride sweep: covers compressed traces and the bytes between spans.
	for off := int64(0); off < int64(len(data)); off += 5 {
		if _, ok := cuts[off]; !ok {
			cuts[off] = fmt.Sprintf("byte%d", off)
		}
	}
	// In offset order, so the corpus — and a seed picked from it — is the
	// same on every run.
	offs := make([]int64, 0, len(cuts))
	for off := range cuts {
		offs = append(offs, off)
	}
	slices.Sort(offs)
	var cases []Case
	for _, off := range offs {
		if off < 0 || off >= int64(len(data)) {
			continue
		}
		cases = append(cases, Case{
			Name: "truncate@" + cuts[off],
			Data: bytes.Clone(data[:off]),
		})
	}
	return cases
}

// Bombs splices a maximal varint over every size-bearing field the layout
// exposes: metadata/string/rank/record counts, the per-record call depth
// (the call chain's length), and the first record's leading string-table
// index.
func Bombs(data []byte) []Case {
	spans, err := trace.Layout(data)
	if err != nil {
		return nil // compressed or already damaged: nothing to aim at
	}
	var cases []Case
	add := func(name string, s trace.Span) {
		cases = append(cases, Case{Name: "bomb@" + name, Data: splice(data, s.Start, s.End, bombValue)})
	}
	for _, s := range spans {
		switch s.Name {
		case "meta-count", "string-count", "nranks":
			add(s.Name, s)
		case "rank-count":
			add(fmt.Sprintf("%s[r%d]", s.Name, s.Rank), s)
		case "depth":
			// One bomb per rank is enough coverage; every record's
			// depth field would square the corpus.
			if s.Index == 0 {
				add(fmt.Sprintf("%s[r%d,i%d]", s.Name, s.Rank, s.Index), s)
			}
		case "record":
			// The record starts with its Func string-table index:
			// bombing it exercises the out-of-table check.
			if s.Index == 0 {
				end := s.Start + varintLen(data, s.Start)
				add(fmt.Sprintf("strindex[r%d]", s.Rank),
					trace.Span{Start: s.Start, End: end})
			}
		}
	}
	return cases
}

// BitFlips flips one bit every stride bytes.
func BitFlips(data []byte, stride int) []Case {
	if stride <= 0 {
		stride = 7
	}
	var cases []Case
	for off := 0; off < len(data); off += stride {
		mut := bytes.Clone(data)
		mut[off] ^= 1 << (off % 8)
		cases = append(cases, Case{Name: fmt.Sprintf("bitflip@%d.%d", off, off%8), Data: mut})
	}
	return cases
}

// splice replaces data[start:end] with the varint encoding of v.
func splice(data []byte, start, end int64, v uint64) []byte {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	out := make([]byte, 0, int64(len(data))+int64(n)-(end-start))
	out = append(out, data[:start]...)
	out = append(out, buf[:n]...)
	out = append(out, data[end:]...)
	return out
}

// varintLen returns the encoded length of the varint at data[off:].
func varintLen(data []byte, off int64) int64 {
	_, n := binary.Uvarint(data[off:])
	if n <= 0 {
		return 1
	}
	return int64(n)
}

// Outcome is what one decoding attempt did.
type Outcome struct {
	// Trace and Stats are the decode results (nil on error).
	Trace *trace.Trace
	Stats *trace.DecodeStats
	// Err is the decode error, if any.
	Err error
	// Panicked reports that the decoder panicked; PanicValue carries the
	// recovered value. A resilient decoder never sets this.
	Panicked   bool
	PanicValue any
	// AllocBytes is the total heap allocation the attempt performed
	// (runtime TotalAlloc delta — an upper bound including incidental
	// allocations).
	AllocBytes uint64
}

// Exercise decodes one mutated encoding under recover, measuring
// allocations, so tests can assert the three resilience properties: no
// panic, bounded allocation, classified error.
func Exercise(data []byte, opts trace.DecodeOptions) Outcome {
	return guard(func() (*trace.Trace, *trace.DecodeStats, error) {
		return trace.DecodeWithOptions(bytes.NewReader(data), opts)
	})
}

// ExerciseDir runs ReadDir on a trace directory under the same guards.
func ExerciseDir(dir string, opts trace.DecodeOptions) Outcome {
	return guard(func() (*trace.Trace, *trace.DecodeStats, error) {
		return trace.ReadDirWithOptions(dir, opts)
	})
}

func guard(fn func() (*trace.Trace, *trace.DecodeStats, error)) (out Outcome) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	func() {
		defer func() {
			if v := recover(); v != nil {
				out.Panicked = true
				out.PanicValue = v
			}
		}()
		out.Trace, out.Stats, out.Err = fn()
	}()
	runtime.ReadMemStats(&after)
	out.AllocBytes = after.TotalAlloc - before.TotalAlloc
	return out
}
