package trace

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func sampleTrace(t *testing.T) *Trace {
	t.Helper()
	tr := New(2)
	tr.Meta["program"] = "quickstart"
	tr.Meta["fs.mode"] = "posix"
	tick := []int64{0, 0}
	add := func(rank int, layer Layer, fn string, chain []string, args ...string) Ref {
		tick[rank] += 2
		return tr.Append(Record{
			Rank: rank, Func: fn, Layer: layer,
			Args: args, Tick: tick[rank], Ret: tick[rank] + 1,
			Ctx: NewContext(chain, fmt.Sprintf("site%d", rank)),
		})
	}
	add(0, LayerMPIIO, "MPI_File_open", nil, "comm0", "f.bin", "rw")
	add(0, LayerPOSIX, "open", []string{"mpi-io:MPI_File_open@m"}, "f.bin", "rw", "3")
	add(0, LayerMPIIO, "MPI_File_write_at", nil, "0", "0", "4")
	add(0, LayerPOSIX, "pwrite", []string{"mpi-io:MPI_File_write_at@m"}, "3", "4", "0")
	add(1, LayerMPI, "MPI_Barrier", nil, "comm0")
	add(1, LayerPOSIX, "pread", nil, "3", "4", "0")
	if err := tr.Validate(); err != nil {
		t.Fatalf("sample trace invalid: %v", err)
	}
	return tr
}

func TestValidateCatchesCorruption(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Trace)
		want   string
	}{
		{"wrong rank", func(tr *Trace) { tr.Ranks[0][1].Rank = 1 }, "holds record for rank"},
		{"wrong seq", func(tr *Trace) { tr.Ranks[0][1].Seq = 7 }, "has seq"},
		{"ret not increasing", func(tr *Trace) {
			tr.Ranks[0][1].Ret = tr.Ranks[0][0].Ret
			tr.Ranks[0][1].Tick = tr.Ranks[0][0].Ret
		}, "not increasing"},
		{"returns before entry", func(tr *Trace) { tr.Ranks[0][1].Tick = tr.Ranks[0][1].Ret + 1 }, "before entry"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := sampleTrace(t)
			tc.mutate(tr)
			err := tr.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, compress := range []bool{true, false} {
		t.Run(fmt.Sprintf("compress=%v", compress), func(t *testing.T) {
			tr := sampleTrace(t)
			var buf bytes.Buffer
			if err := Encode(&buf, tr, EncodeOptions{Compress: compress}); err != nil {
				t.Fatalf("Encode: %v", err)
			}
			got, err := Decode(&buf)
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			if !reflect.DeepEqual(got, tr) {
				t.Errorf("round trip mismatch:\ngot  %+v\nwant %+v", got, tr)
			}
		})
	}
}

// TestDecodeInternsContexts: a decoded rank holds one Context per distinct
// (chain, site) — records share it, also across batches of a windowed read
// — and a record at depth 0 with no site holds none.
func TestDecodeInternsContexts(t *testing.T) {
	tr := New(1)
	chains := [][]string{nil, {"mpi-io:MPI_File_write_at@m"}, {"hdf5:H5Dwrite@a", "mpi-io:MPI_File_write_at@m"}}
	for i := 0; i < 300; i++ {
		site := ""
		if i%4 == 3 {
			site = "io.c:7"
		}
		tick := int64(2*i + 1)
		tr.Append(Record{Rank: 0, Func: "pwrite", Layer: LayerPOSIX, Args: []string{"3", "8", fmt.Sprint(8 * i)},
			Tick: tick, Ret: tick + 1, Ctx: NewContext(chains[i%3], site)})
	}
	data := encodeBytes(t, tr, true)
	check := func(name string, recs []Record) {
		t.Helper()
		byKey := map[string]*Context{}
		for i := range recs {
			r := &recs[i]
			if !slices.Equal(r.Chain(), tr.Ranks[0][i].Chain()) || r.Site() != tr.Ranks[0][i].Site() {
				t.Fatalf("%s: record %d decoded chain %q site %q", name, i, r.Chain(), r.Site())
			}
			if r.Depth() == 0 && r.Site() == "" {
				if r.Ctx != nil {
					t.Fatalf("%s: record %d has an empty context %+v, want nil", name, i, r.Ctx)
				}
				continue
			}
			key := fmt.Sprintf("%q %q", r.Chain(), r.Site())
			if c, ok := byKey[key]; ok && c != r.Ctx {
				t.Fatalf("%s: record %d holds a second Context for %s", name, i, key)
			}
			byKey[key] = r.Ctx
		}
		if len(byKey) != 5 {
			t.Errorf("%s: %d distinct contexts, want 5", name, len(byKey))
		}
	}
	got, err := Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	check("Decode", got.Ranks[0])
	dir := t.TempDir()
	if err := WriteDir(dir, tr, DefaultEncodeOptions()); err != nil {
		t.Fatal(err)
	}
	ranks, batches := readEveryRank(t, openDir(t, dir, StreamOptions{WindowBytes: 1 << 12}))
	if batches < 2 {
		t.Fatalf("a 4 KiB window read the rank in %d batch", batches)
	}
	check("windowed", ranks[0])
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":       nil,
		"bad magic":   []byte("NOPE\x01\x00rest"),
		"bad version": []byte("VIOT\x09\x00"),
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := Decode(bytes.NewReader(data)); err == nil {
				t.Fatal("Decode accepted garbage input")
			}
		})
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	tr := sampleTrace(t)
	var buf bytes.Buffer
	if err := Encode(&buf, tr, EncodeOptions{Compress: false}); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	full := buf.Bytes()
	// Every strict prefix must fail to decode, never panic or succeed.
	for n := 0; n < len(full); n += 7 {
		if _, err := Decode(bytes.NewReader(full[:n])); err == nil {
			t.Fatalf("Decode accepted truncated input of %d/%d bytes", n, len(full))
		}
	}
}

func TestCompressionShrinksRepetitiveTraces(t *testing.T) {
	tr := New(1)
	tick := int64(0)
	for i := 0; i < 2000; i++ {
		tick += 2
		tr.Append(Record{Rank: 0, Func: "pwrite", Layer: LayerPOSIX,
			Args: []string{"3", "4096", "0"}, Tick: tick, Ret: tick + 1})
	}
	var plain, packed bytes.Buffer
	if err := Encode(&plain, tr, EncodeOptions{Compress: false}); err != nil {
		t.Fatal(err)
	}
	if err := Encode(&packed, tr, EncodeOptions{Compress: true}); err != nil {
		t.Fatal(err)
	}
	if packed.Len() >= plain.Len() {
		t.Errorf("compressed %d bytes >= plain %d bytes", packed.Len(), plain.Len())
	}
}

func TestWriteReadDir(t *testing.T) {
	tr := sampleTrace(t)
	dir := filepath.Join(t.TempDir(), "tracedir")
	if err := WriteDir(dir, tr, DefaultEncodeOptions()); err != nil {
		t.Fatalf("WriteDir: %v", err)
	}
	got, err := ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	if !reflect.DeepEqual(got, tr) {
		t.Errorf("dir round trip mismatch:\ngot  %+v\nwant %+v", got, tr)
	}
}

func TestReadDirMissingRank(t *testing.T) {
	tr := sampleTrace(t)
	dir := filepath.Join(t.TempDir(), "tracedir")
	if err := WriteDir(dir, tr, DefaultEncodeOptions()); err != nil {
		t.Fatal(err)
	}
	// Remove rank 1's stream: ReadDir must notice the hole.
	if err := removeFile(filepath.Join(dir, "rank-1.viot")); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadDir(dir); err == nil {
		t.Fatal("ReadDir accepted a directory with a missing rank file")
	}
}

func TestLayerStringParseInverse(t *testing.T) {
	for l := Layer(0); l < numLayers; l++ {
		got, err := ParseLayer(l.String())
		if err != nil || got != l {
			t.Errorf("ParseLayer(%q) = %v, %v; want %v", l.String(), got, err, l)
		}
	}
	if _, err := ParseLayer("bogus"); err == nil {
		t.Error("ParseLayer accepted unknown layer")
	}
}

func TestFrameFormatParseInverse(t *testing.T) {
	cases := []Frame{
		{LayerHDF5, "H5Dwrite", "test.c:40"},
		{LayerMPI, "MPI_Send", ""},
	}
	for _, f := range cases {
		got, err := ParseFrame(FormatFrame(f.Layer, f.Func, f.Site))
		if err != nil || got != f {
			t.Errorf("ParseFrame(FormatFrame(%v)) = %v, %v", f, got, err)
		}
	}
	if _, err := ParseFrame("nocolon"); err == nil {
		t.Error("ParseFrame accepted malformed frame")
	}
}

func TestRecordArgAccessors(t *testing.T) {
	r := Record{Args: []string{"10", "abc"}}
	if got := r.Arg(0); got != "10" {
		t.Errorf("Arg(0) = %q", got)
	}
	if got := r.Arg(5); got != "" {
		t.Errorf("Arg(5) = %q, want empty", got)
	}
	if v, ok := r.IntArg(0); !ok || v != 10 {
		t.Errorf("IntArg(0) = %d, %v", v, ok)
	}
	if _, ok := r.IntArg(1); ok {
		t.Error("IntArg(1) parsed non-numeric arg")
	}
	if _, ok := r.IntArg(9); ok {
		t.Error("IntArg(9) parsed missing arg")
	}
}

func TestRefLess(t *testing.T) {
	cases := []struct {
		a, b Ref
		want bool
	}{
		{Ref{0, 5}, Ref{1, 0}, true},
		{Ref{1, 0}, Ref{0, 5}, false},
		{Ref{0, 1}, Ref{0, 2}, true},
		{Ref{0, 2}, Ref{0, 2}, false},
	}
	for _, tc := range cases {
		if got := tc.a.Less(tc.b); got != tc.want {
			t.Errorf("%v.Less(%v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

// randomTrace builds a structurally valid random trace for property tests.
func randomTrace(rng *rand.Rand) *Trace {
	nranks := 1 + rng.Intn(4)
	tr := New(nranks)
	funcs := []string{"pwrite", "pread", "MPI_Send", "MPI_Recv", "H5Dwrite", "fsync"}
	for rank := 0; rank < nranks; rank++ {
		tick := int64(0)
		lastRet := int64(0)
		n := rng.Intn(40)
		for i := 0; i < n; i++ {
			tick += int64(1 + rng.Intn(5))
			depth := rng.Intn(3)
			var chain []string
			for c := 0; c < depth; c++ {
				chain = append(chain, FormatFrame(Layer(rng.Intn(int(numLayers))), funcs[rng.Intn(len(funcs))], ""))
			}
			var args []string
			for a := rng.Intn(4); a > 0; a-- {
				args = append(args, fmt.Sprint(rng.Intn(1000)))
			}
			ret := tick + int64(rng.Intn(3))
			if ret <= lastRet {
				ret = lastRet + 1
			}
			lastRet = ret
			tr.Append(Record{
				Rank: rank, Func: funcs[rng.Intn(len(funcs))],
				Layer: Layer(rng.Intn(int(numLayers))),
				Args:  args, Tick: tick, Ret: ret,
				Ctx: NewContext(chain, ""),
			})
		}
	}
	if len(tr.Meta) == 0 {
		tr.Meta["k"] = "v"
	}
	return tr
}

func TestPropertyEncodeDecodeIdentity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := randomTrace(rng)
		var buf bytes.Buffer
		if err := Encode(&buf, tr, EncodeOptions{Compress: seed%2 == 0}); err != nil {
			t.Logf("Encode: %v", err)
			return false
		}
		got, err := Decode(&buf)
		if err != nil {
			t.Logf("Decode: %v", err)
			return false
		}
		return reflect.DeepEqual(got, tr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestWriteText(t *testing.T) {
	tr := sampleTrace(t)
	var buf bytes.Buffer
	if err := WriteText(&buf, tr); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# fs.mode = posix", "# program = quickstart",
		"# rank 0 (4 records)", "# rank 1 (2 records)",
		"MPI_File_open(comm0, f.bin, rw)",
		"  pwrite(3, 4, 0)", // depth-1 indentation
	} {
		if !strings.Contains(out, want) {
			t.Errorf("text dump missing %q:\n%s", want, out)
		}
	}
	// Deterministic output.
	var buf2 bytes.Buffer
	WriteText(&buf2, tr)
	if buf.String() != buf2.String() {
		t.Error("WriteText is not deterministic")
	}
}
