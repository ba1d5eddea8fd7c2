package trace

import (
	"reflect"
	"strconv"
	"testing"
)

// rowArgs lays a record of row c out with every run one long: "1" for an
// integer, "x" for a name. It returns the arguments and the position of
// each field.
func rowArgs(c *Call) ([]string, map[Field]int) {
	var args []string
	at := map[Field]int{}
	for _, e := range c.Elems {
		if e.Field != noField {
			at[e.Field] = len(args)
		}
		for range e.Width() {
			if e.Field.Integer() {
				args = append(args, "1")
			} else {
				args = append(args, "x")
			}
		}
	}
	return args, at
}

// readSteps reads every rank of src and returns, per step, what fn makes of
// it while it is valid.
func readSteps[T any](t *testing.T, src Source, fn func(s *Step) T) []T {
	t.Helper()
	var out []T
	for rank := range src.NumRanks() {
		err := src.ReadRank(rank, func(steps []Step) {
			for i := range steps {
				out = append(out, fn(&steps[i]))
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestStepIntegersMatchIntArg pins the integer semantics of both step
// producers: for every integer field of every row, spelled every way
// intArgTable spells one, the steps of the records in memory (Steps) and
// those a written directory lends (over its side table) read the field as
// Record.IntArg and Record.Int32Arg do — value and ok.
func TestStepIntegersMatchIntArg(t *testing.T) {
	type reading struct {
		Int   int64
		OK    bool
		Int32 int
		OK32  bool
	}
	tr := New(1)
	var pos []int
	var want []reading
	for _, c := range Calls {
		base, at := rowArgs(c)
		for _, e := range c.Elems {
			if !e.Field.Integer() {
				continue
			}
			for _, s := range intArgTable {
				args := append([]string(nil), base...)
				p := at[e.Field]
				args[p] = s
				tick := int64(2*len(tr.Ranks[0]) + 1)
				rec := Record{Func: c.Name, Layer: LayerMPI, Args: args, Tick: tick, Ret: tick + 1}
				v, ok := rec.IntArg(p)
				v32, ok32 := rec.Int32Arg(p)
				tr.Append(rec)
				pos, want = append(pos, p), append(want, reading{v, ok, v32, ok32})
			}
		}
	}
	dir := t.TempDir()
	if err := WriteDir(dir, tr, DefaultEncodeOptions()); err != nil {
		t.Fatal(err)
	}
	d := openDir(t, dir, StreamOptions{})
	for name, src := range map[string]Source{"trace": tr, "directory": d} {
		got := readSteps(t, src, func(s *Step) reading {
			p := pos[s.Rec.Seq]
			v, ok := s.Int(p)
			v32, ok32 := s.Int32(p)
			return reading{v, ok, v32, ok32}
		})
		for i := range want {
			if got[i] != want[i] {
				rec := tr.Ranks[0][i]
				t.Errorf("%s: %s(%q) reads %+v at %d, IntArg and Int32Arg %+v", name, rec.Func, rec.Args[pos[i]], got[i], pos[i], want[i])
			}
		}
	}
}

// TestLentStepsKeepDecimalNames: a rank file's side table keeps no string of
// a decimal, yet a decimal that is a function name, a call site, a frame of
// a call chain or a handle reads back as the string it was, through the
// step and its record, and so do decimals spelled as the tracer never spells
// them.
func TestLentStepsKeepDecimalNames(t *testing.T) {
	tr := New(1)
	for i, args := range [][]string{
		{"42", "16", "1024"}, {"42", "+16", "007"}, {"-0", "16", "-1"}, {"1024", "99", "0"},
	} {
		tick := int64(2*i + 1)
		fn := "pwrite"
		if i%2 == 1 {
			fn = strconv.Itoa(i)
		}
		tr.Append(Record{Func: fn, Layer: LayerPOSIX, Args: args, Tick: tick, Ret: tick + 1,
			Ctx: NewContext([]string{"7", "app:main"}, strconv.Itoa(100+i))})
	}
	dir := t.TempDir()
	if err := WriteDir(dir, tr, DefaultEncodeOptions()); err != nil {
		t.Fatal(err)
	}
	got, _ := readEveryRank(t, openDir(t, dir, StreamOptions{}))
	if !reflect.DeepEqual(got, tr.Ranks) {
		t.Fatalf("lent steps read %v, want %v", got, tr.Ranks)
	}
}
