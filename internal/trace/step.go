package trace

import (
	"strconv"
	"sync"
	"unsafe"
)

// Step is one record as the conflict replay and the MPI scan read it: the
// record's row of the call table, the record, and its arguments. A
// directory's rank reader hands out steps over its rank file's string
// table, each of whose entries it parsed as an integer when it loaded the
// table, so the analysis path builds no []string Args and parses no decimal
// twice. Steps makes steps of records in memory, which read their Args, an
// integer parsed when it is read, as Record.IntArg does. Steps, like the
// records a Source lends, are valid only during the call they are passed
// to.
type Step struct {
	// Call is the record's row; nil when the call table has none.
	Call *Call
	// Rec is the record: its Rank, Seq, Func, Layer and Ctx. A step a
	// directory lends has a record without Args; read the arguments
	// through the step.
	Rec *Record
	// tab is the rank file's table argument i is entry tab.idx[lo+i] of;
	// nil for a record in memory, whose hi is its argument count.
	tab    *argTable
	lo, hi uint32
}

// argTable is a rank file's string table as steps read it: each entry with
// its value as strconv.ParseInt(s, 10, 64) reads it, or the call-table row
// it names as a function, and the index scratch of the slot's records'
// arguments (see decoder.argIndices).
type argTable struct {
	strs []string
	ints []int64 // entry i's value when it is an integer
	// isInt has bit i set when entry i is an integer: a bit, not a byte,
	// so that it stays in cache while the replay reads offsets.
	isInt []uint64
	// rows[i] is 1 + the index in Calls of the row whose function entry i
	// names, or 0.
	rows []uint8
	idx  []uint32
}

// NumArgs is the record's argument count.
func (s *Step) NumArgs() int { return int(s.hi - s.lo) }

// Arg returns argument i, or "" when absent.
func (s *Step) Arg(i int) string {
	if uint(i) >= uint(s.hi-s.lo) {
		return ""
	}
	if s.tab == nil {
		return s.Rec.Args[i]
	}
	return s.tab.str(s.tab.idx[int(s.lo)+i])
}

// Int returns argument i as Record.IntArg reads it: parsed exactly as
// strconv.ParseInt(arg, 10, 64), ok false when absent or malformed.
func (s *Step) Int(i int) (int64, bool) {
	if uint(i) >= uint(s.hi-s.lo) {
		return 0, false
	}
	if s.tab == nil {
		return parseInt(s.Rec.Args[i])
	}
	t := s.tab
	j := t.idx[int(s.lo)+i]
	return t.ints[j], t.integer(j)
}

// Int32 is Int for a rank, tag, root or index, as Record.Int32Arg reads it:
// a value outside int32 is unusable.
func (s *Step) Int32(i int) (int, bool) {
	v, ok := s.Int(i)
	if !ok || v != int64(int32(v)) {
		return 0, false
	}
	return int(v), true
}

// str returns entry j's string. A decimal the table keeps no string of (see
// addEntry) is spelled the first time it is asked for.
func (t *argTable) str(j uint32) string {
	if a := t.strs[j]; a != "" || !t.integer(j) {
		return a
	}
	t.strs[j] = strconv.FormatInt(t.ints[j], 10)
	return t.strs[j]
}

// addEntry appends the value of string-table entry b, whether it is an
// integer, and the row it names; its string comes with the table's. It reports whether b is a decimal that
// strconv.FormatInt spells as b — as the tracer writes every integer — which
// needs no string: Arg makes one should a step read it as a name.
func (t *argTable) addEntry(b []byte) (spelled bool) {
	v, ok := parseInt(b)
	i, row := len(t.ints), uint8(0)
	if i%64 == 0 {
		t.isInt = append(t.isInt, 0)
	}
	if ok {
		t.isInt[i/64] |= 1 << (i % 64)
	} else if len(b) <= maxCallName {
		if c := callsByName[string(b)]; c != nil {
			row = c.row + 1
		}
	}
	t.ints, t.rows = append(t.ints, v), append(t.rows, row)
	if !ok {
		return false
	}
	// No '+', and no leading zero but in "0" itself: "-0" and "007" are
	// not FormatInt's.
	switch b[0] {
	case '+':
		return false
	case '-':
		b = b[1:]
		return b[0] != '0'
	}
	return b[0] != '0' || len(b) == 1
}

// integer reports whether entry j is an integer.
func (t *argTable) integer(j uint32) bool { return t.isInt[j/64]>>(j%64)&1 != 0 }

// rowOf is the row entry i names as a function, or nil.
func (t *argTable) rowOf(i uint32) *Call {
	if r := t.rows[i]; r > 0 {
		return Calls[r-1]
	}
	return nil
}

// reset empties t for a string table of about n entries, keeping its
// arrays; release has cleared its strings.
func (t *argTable) reset(n int) {
	if cap(t.ints) < n {
		t.strs, t.ints = make([]string, 0, n), make([]int64, 0, n)
		t.isInt, t.rows = make([]uint64, 0, (n+63)/64), make([]uint8, 0, n)
	}
	t.strs, t.ints, t.isInt, t.rows = t.strs[:0], t.ints[:0], t.isInt[:0], t.rows[:0]
}

// release drops the strings of the rank file t was the table of, so that a
// pooled table keeps none alive: most entries are decimals, which have none
// to clear.
func (t *argTable) release() {
	clear(t.strs)
}

// parseInt parses s exactly as strconv.ParseInt(s, 10, 64) does: an optional
// sign, then one or more decimal digits within int64 — "+5", "007" and "-0"
// are integers, " 5", "1e3", "0x10" and "" are not. It allocates nothing,
// where strconv's error does.
func parseInt[S string | []byte](s S) (int64, bool) {
	// The common argument, a count or offset of at most 18 plain digits,
	// cannot overflow.
	if len(s) > 0 && len(s) <= 18 {
		v := int64(0)
		for i := 0; i < len(s); i++ {
			c := s[i] - '0'
			if c > 9 {
				return parseSigned(s)
			}
			v = v*10 + int64(c)
		}
		return v, true
	}
	return parseSigned(s)
}

// parseSigned is parseInt for any string: a sign, 19 digits or more, or a
// byte that is no digit.
func parseSigned[S string | []byte](s S) (int64, bool) {
	neg := false
	if len(s) > 0 && (s[0] == '+' || s[0] == '-') {
		neg = s[0] == '-'
		s = s[1:]
	}
	if len(s) == 0 {
		return 0, false
	}
	lim := uint64(1<<63 - 1)
	if neg {
		lim++
	}
	u := uint64(0)
	for i := 0; i < len(s); i++ {
		c := uint64(s[i] - '0')
		if c > 9 || u > (lim-c)/10 {
			return 0, false
		}
		u = u*10 + c
	}
	if neg {
		return -int64(u), true
	}
	return int64(u), true
}

// Steps passes recs to fn as steps, stepChunk at a time. It is how a trace
// in memory is read (Trace.ReadRank); the steps are reused for the next
// call.
func Steps(recs []Record, fn func(steps []Step)) {
	sp := steppers.Get().(*stepper)
	defer sp.release()
	for len(recs) > 0 {
		n := sp.fill(recs)
		fn(sp.steps[:n])
		recs = recs[n:]
	}
}

// stepChunk is the most records Steps passes at once.
const stepChunk = 256

// stepper builds steps from records, looking their rows up by function
// name.
type stepper struct {
	steps []Step
	rows  rowCache
}

var steppers = sync.Pool{New: func() any { return &stepper{steps: make([]Step, stepChunk)} }}

// fill makes steps of the first records of recs, at most stepChunk, and
// returns how many. Each step's row is written only when it changed: a
// pointer store into the heap, while the collector marks, goes through its
// write barrier.
func (sp *stepper) fill(recs []Record) int {
	steps := sp.steps[:min(len(recs), stepChunk)]
	for i := range steps {
		s, rec := &steps[i], &recs[i]
		if c := sp.rows.of(rec.Func); s.Call != c {
			s.Call = c
		}
		s.Rec, s.hi = rec, uint32(len(rec.Args))
	}
	return len(steps)
}

// release empties the stepper, so the pool keeps no trace alive, and pools
// it.
func (sp *stepper) release() {
	clear(sp.steps)
	sp.rows = rowCache{}
	steppers.Put(sp)
}

// rowCache looks rows up by function name, remembering its last few answers
// by the address of the name's bytes: a rank's records mostly call a handful
// of functions over and over, each named by one shared string.
type rowCache struct {
	names [4]string
	calls [4]*Call
	next  int
}

// of returns fn's row, or nil when the table has none.
func (rc *rowCache) of(fn string) *Call {
	for i, name := range rc.names {
		if unsafe.StringData(name) == unsafe.StringData(fn) && len(name) == len(fn) {
			return rc.calls[i]
		}
	}
	c := callsByName[fn]
	i := rc.next % len(rc.names)
	rc.names[i], rc.calls[i], rc.next = fn, c, rc.next+1
	return c
}
