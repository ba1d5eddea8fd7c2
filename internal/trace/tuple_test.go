package trace

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"testing"
	"unsafe"
)

// tupleTrace is one rank per entry of args: rank r calls MPI_Send with
// args[r] three times, with a write at a fresh offset between the calls, and
// ends with a call of more arguments than the tuple table keys, twice.
func tupleTrace(args ...[]string) *Trace {
	tr := New(len(args))
	long := []string{"8", "a", "b", "c", "d", "e", "f", "g", "h"}
	for rank, a := range args {
		tick := int64(0)
		add := func(fn string, args []string) {
			tick += 2
			tr.Append(Record{Rank: rank, Func: fn, Layer: LayerMPI, Args: args, Tick: tick, Ret: tick + 1})
		}
		for i := range 3 {
			add("MPI_Send", a)
			add("pwrite", []string{"3", "8", fmt.Sprint(8 * i)})
		}
		add("MPI_Waitall", long)
		add("MPI_Waitall", long)
	}
	return tr
}

// backing names the array behind a record's Args.
func backing(rec *Record) *string { return unsafe.SliceData(rec.Args) }

// sharedAcross reports whether any record of a shares its Args array with
// any record of b.
func sharedAcross(a, b []Record) bool {
	for i := range a {
		for j := range b {
			if len(a[i].Args) > 0 && backing(&a[i]) == backing(&b[j]) {
				return true
			}
		}
	}
	return false
}

func encodeTuples(t *testing.T, tr *Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, tr, DefaultEncodeOptions()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDecodeSharesArgTuples pins the decoder's argument-tuple table: equal
// tuples of one stream share one read-only Args array, while the fresh
// offsets and a tuple too long for the table get their own. Records of
// different streams never share one — not in one directory of rank files,
// and not when one pooled reader state decodes two streams whose string
// tables give the same indices to equal or to different strings.
func TestDecodeSharesArgTuples(t *testing.T) {
	send := []string{"comm-world", "1", "0", "8"}
	got, err := Decode(bytes.NewReader(encodeTuples(t, tupleTrace(send))))
	if err != nil {
		t.Fatal(err)
	}
	recs := got.Ranks[0]
	if !slices.EqualFunc(recs, tupleTrace(send).Ranks[0], func(a, b Record) bool { return slices.Equal(a.Args, b.Args) }) {
		t.Fatalf("decoded Args differ from the encoded ones: %v", recs)
	}
	if backing(&recs[0]) != backing(&recs[2]) || backing(&recs[0]) != backing(&recs[4]) {
		t.Error("the three equal MPI_Send tuples do not share one Args array")
	}
	if backing(&recs[1]) == backing(&recs[3]) || backing(&recs[6]) == backing(&recs[7]) {
		t.Error("distinct or over-long tuples share an Args array")
	}

	dir := t.TempDir()
	if err := WriteDir(dir, tupleTrace(send, send), DefaultEncodeOptions()); err != nil {
		t.Fatal(err)
	}
	for _, readers := range []int{1, 2} {
		got, _, err := readDir(dir, DecodeOptions{}, readers)
		if err != nil {
			t.Fatal(err)
		}
		if sharedAcross(got.Ranks[0], got.Ranks[1]) {
			t.Errorf("readers=%d: two rank files share an Args array", readers)
		}
	}

	// One reader state for every stream: the second stream's indices name
	// the same strings as the first's, then other ones.
	st := &readerState{win: make([]byte, windowSize)}
	saved := readerStates
	readerStates = &sync.Pool{New: func() any { return st }}
	defer func() { readerStates = saved }()
	first, err := Decode(bytes.NewReader(encodeTuples(t, tupleTrace(send))))
	if err != nil {
		t.Fatal(err)
	}
	for _, next := range [][]string{send, {"comm-other", "2", "5", "9"}} {
		second, err := Decode(bytes.NewReader(encodeTuples(t, tupleTrace(next))))
		if err != nil {
			t.Fatal(err)
		}
		if a := second.Ranks[0][0].Args; !slices.Equal(a, next) {
			t.Errorf("second stream decoded %q, want %q", a, next)
		}
		if sharedAcross(first.Ranks[0], second.Ranks[0]) {
			t.Errorf("second stream (%q) shares an Args array with the first", next)
		}
	}
}
