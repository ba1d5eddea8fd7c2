package trace

import (
	"fmt"
	"slices"
	"strings"
	"unsafe"
)

// Call layouts. The tracer records every argument of a call as a string, in
// an order each function fixes; the conflict replay (§IV-B) and the MPI scan
// (§IV-C) read them back by name through this table, the one statement of
// those orders. A layout lists a row's fields in recorded order: a token
// named in fieldNames is that Field, any other is positional filler.
// "status" is a (source, tag) pair; "x*n" is a run of field n's value of x,
// and the fields after it sit where it ends; "x?" is optional: older traces,
// and calls it does not apply to, leave it out.
var callRows = []struct {
	name   string
	kind   CallKind
	layout string
}{
	{"open", KindOpen, "path flags handle"},
	{"fopen", KindOpen, "path mode handle"},
	{"close", KindClose, "handle"},
	{"fclose", KindClose, "handle"},
	{"fsync", KindSync, "handle"},
	{"fdatasync", KindSync, "handle"},
	{"read", KindRead, "handle count"},
	{"write", KindWrite, "handle count pos?"},
	{"pread", KindRead, "handle count offset"},
	{"pwrite", KindWrite, "handle count offset"},
	{"fread", KindRead, "handle size count"},
	{"fwrite", KindWrite, "handle size count pos?"},
	{"readv", KindRead, "handle iovcnt iovlen*iovcnt"},
	{"writev", KindWrite, "handle iovcnt iovlen*iovcnt pos?"},
	{"lseek", KindSeek, "handle offset whence pos"},
	{"fseek", KindSeek, "handle offset whence pos"},
	{"ftruncate", KindTruncate, "handle size"},
	{"unlink", KindUnlink, "path"},
	{"stat", KindNone, "path filesize"},

	// A receive's peer and tag of -1 are MPI_ANY_SOURCE and MPI_ANY_TAG; its
	// status holds the actual source and tag.
	{"MPI_Send", KindSend, "comm peer tag count"},
	{"MPI_Isend", KindSend, "comm peer tag count request"},
	{"MPI_Sendrecv", KindSend, "comm peer tag count source rtag rcount status"},
	{"MPI_Recv", KindRecv, "comm peer tag count status"},
	{"MPI_Irecv", KindRecv, "comm peer tag request"},
	// An index or outcount of -1 is MPI_UNDEFINED: no listed request was
	// active, so nothing completed and no status is read.
	{"MPI_Wait", KindComplete, "request status"},
	{"MPI_Test", KindComplete, "request flag status"},
	{"MPI_Waitall", KindComplete, "nreq request*nreq status*nreq"},
	{"MPI_Testall", KindComplete, "nreq request*nreq flag status*nreq"},
	{"MPI_Waitany", KindComplete, "nreq request*nreq index status"},
	{"MPI_Waitsome", KindComplete, "nreq request*nreq outcount index*outcount status*outcount"},
	{"MPI_Testsome", KindComplete, "nreq request*nreq outcount index*outcount status*outcount"},
	{"MPI_Barrier", KindBarrier, "comm"},
	{"MPI_Allreduce", KindBarrier, "comm op"},
	{"MPI_Allgather", KindBarrier, "comm"},
	{"MPI_Alltoall", KindBarrier, "comm"},
	{"MPI_Ibarrier", KindBarrier, "comm request"},
	{"MPI_Iallreduce", KindBarrier, "comm op request"},
	{"MPI_Comm_dup", KindBarrier, "comm newcomm members"},
	{"MPI_Comm_split", KindBarrier, "comm color key newcomm members"},
	{"MPI_Comm_free", KindBarrier, "comm"},
	{"MPI_Bcast", KindScatter, "comm root count"},
	{"MPI_Scatter", KindScatter, "comm root"},
	{"MPI_Reduce", KindGather, "comm root op"},
	{"MPI_Gather", KindGather, "comm root"},
	{"MPI_Scan", KindPrefix, "comm op"},
	{"MPI_Exscan", KindPrefix, "comm op"},

	// An MPI-IO call's handle aliases the descriptor of the POSIX open
	// nested in its MPI_File_open.
	{"MPI_File_open", KindFileSync, "comm path amode handle"},
	{"MPI_File_close", KindFileSync, "handle"},
	{"MPI_File_sync", KindFileSync, "handle"},
	{"MPI_File_set_view", KindFile, "handle disp etype filetype"},
	{"MPI_File_set_size", KindFile, "handle size"},
	{"MPI_File_read_all", KindFile, "handle count"},
	{"MPI_File_write_all", KindFile, "handle count"},
	{"MPI_File_read_at_all", KindFile, "handle offset count"},
	{"MPI_File_write_at_all", KindFile, "handle offset count"},
	{"MPI_File_read", KindNone, "handle count"},
	{"MPI_File_write", KindNone, "handle count"},
	{"MPI_File_read_at", KindNone, "handle offset count"},
	{"MPI_File_write_at", KindNone, "handle offset count"},
	{"MPI_File_seek", KindNone, "handle offset mpiwhence pos"},
}

// CallKind is what the conflict replay or the MPI scan does with a call. The
// collective classes come last, the MPI-IO ones after the synchronizing
// ones; KindFileSync is an MPI-IO collective that is also a sync point.
type CallKind uint8

// Call kinds.
const (
	KindNone CallKind = iota
	KindRead
	KindWrite
	KindOpen
	KindClose
	KindSync
	KindSeek
	KindTruncate
	KindUnlink
	KindSend
	KindRecv
	KindComplete
	KindBarrier
	KindScatter
	KindGather
	KindPrefix
	KindFile
	KindFileSync
)

// Field names a recorded argument.
type Field uint8

// Fields.
const (
	noField Field = iota
	Handle
	Path
	Flags // open(2)'s: "rw|creat|append"
	Mode  // fopen(3)'s: "w", "a+"
	Count
	Size // fread/fwrite's item size; the length ftruncate sets
	Offset
	Whence
	Pos // a position the tracer resolved: after a seek, or where an append-mode write landed
	IOVCount
	IOVLen
	Comm
	Peer // destination, or requested source
	Tag
	Request
	NumRequests
	Flag // "1" when an MPI_Test* completed its requests
	Index
	OutCount
	Status
	Root
	NewComm
	Members
	numFields
)

var fieldNames = [numFields]string{"", "handle", "path", "flags", "mode", "count", "size", "offset",
	"whence", "pos", "iovcnt", "iovlen", "comm", "peer", "tag", "request", "nreq", "flag",
	"index", "outcount", "status", "root", "newcomm", "members"}

// Call is one row of the table.
type Call struct {
	Name  string
	Kind  CallKind
	Elems []Elem
	at    [numFields]int8 // a field's position, or absent, or afterRun
}

// Elem is one layout token: its name and field (noField for filler), the
// field that counts it when it is a run, and whether it is optional.
type Elem struct {
	Name      string
	Field, By Field
	Optional  bool
}

// Width is the number of arguments one value of the element takes.
func (e Elem) Width() int {
	if e.Field == Status {
		return 2
	}
	return 1
}

const (
	absent   = -1
	afterRun = -2
)

// Calls are the table's rows in table order.
var (
	Calls       = make([]*Call, len(callRows))
	callsByName = make(map[string]*Call, len(callRows))
)

func init() {
	for i, r := range callRows {
		c := &Call{Name: r.name, Kind: r.kind}
		for f := range c.at {
			c.at[f] = absent
		}
		p := 0
		for _, tok := range strings.Fields(r.layout) {
			tok, opt := strings.CutSuffix(tok, "?")
			tok, by, run := strings.Cut(tok, "*")
			e := Elem{Name: tok, Field: fieldOf(tok), By: fieldOf(by), Optional: opt}
			c.Elems = append(c.Elems, e)
			if e.Field != noField {
				c.at[e.Field] = int8(p)
			}
			if run {
				p = afterRun
			} else if p >= 0 {
				p += e.Width()
			}
		}
		Calls[i], callsByName[c.Name] = c, c
	}
}

func fieldOf(tok string) Field {
	return Field(max(slices.Index(fieldNames[:], tok), 0))
}

// CallCache looks rows up by function name, remembering its last few
// answers by the address of the name's bytes: a rank's records mostly call
// a handful of functions over and over, and a decoded trace names each by
// one string-table entry, so a repeat costs a pointer comparison or two.
type CallCache struct {
	names [4]string
	calls [4]*Call
	next  int
}

// Of returns fn's row, or nil when the table has none.
func (cc *CallCache) Of(fn string) *Call {
	for i, name := range cc.names {
		if unsafe.StringData(name) == unsafe.StringData(fn) && len(name) == len(fn) {
			return cc.calls[i]
		}
	}
	c := callsByName[fn]
	i := cc.next % len(cc.names)
	cc.names[i], cc.calls[i], cc.next = fn, c, cc.next+1
	return c
}

// Has reports whether the row has field f.
func (c *Call) Has(f Field) bool { return c.at[f] != absent }

// Pos returns the index in rec.Args at which field f starts, or -1 when the
// row has no f or a count before it is not a count of at most len(rec.Args):
// rec.Arg, rec.IntArg and rec.Int32Arg read the field there, "" or not ok
// when it is absent. The k-th value of a run starts at Pos + k × its width.
func (c *Call) Pos(rec *Record, f Field) int {
	if p := c.at[f]; p != afterRun {
		return int(p)
	}
	return c.walk(rec, f)
}

// walk is Pos for a field after a run.
func (c *Call) walk(rec *Record, f Field) int {
	p := 0
	for _, e := range c.Elems {
		if e.Field == f {
			return p
		}
		w := e.Width()
		if e.By != noField {
			n, ok := rec.IntArg(c.Pos(rec, e.By))
			if !ok || n < 0 || n > int64(len(rec.Args)) {
				return -1
			}
			w *= int(n)
		}
		p += w
	}
	return -1
}

// whenceNames are seek records' whence values, indexed by the C value.
var whenceNames = [...]string{"SEEK_SET", "SEEK_CUR", "SEEK_END"}

// WhenceName renders a whence value for a seek record.
func WhenceName(whence int) string {
	if whence >= 0 && whence < len(whenceNames) {
		return whenceNames[whence]
	}
	return fmt.Sprintf("whence(%d)", whence)
}

// ParseWhence is the inverse of WhenceName.
func ParseWhence(s string) (int, error) {
	if i := slices.Index(whenceNames[:], s); i >= 0 {
		return i, nil
	}
	return 0, fmt.Errorf("trace: unknown whence %q", s)
}
