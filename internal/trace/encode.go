package trace

import (
	"bufio"
	"cmp"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"sync"

	"verifyio/internal/par"
)

// Binary trace format.
//
// Recorder stores traces compactly (the paper keeps Recorder's compression
// unchanged in Recorder⁺). We mirror that with a simple self-contained
// format: a header, a string table (function names, layers and arguments are
// highly repetitive across records), then per-rank record streams with
// varint-encoded fields, optionally DEFLATE-compressed. The encoder deflates
// at flate.BestSpeed; the decoder reads a payload deflated at any level.
//
// Layout (all integers unsigned varints unless noted):
//
//	magic   "VIOT"            (4 bytes)
//	version byte              (currently 1)
//	flags   byte              (bit 0: payload is flate-compressed)
//	payload:
//	  nmeta, then nmeta × (string key, string value)
//	  nstrings, then nstrings × (len, bytes)   -- string table
//	  nranks
//	  per rank: nrecords, then records
//
// Every string inside a record is a string-table index. Record fields are
// delta-encoded where they are monotonic (Seq is implicit, Tick is a delta).
//
// Decoding never trusts the input: every count and length is bounded by
// Limits before allocation, failures are classified DecodeErrors carrying
// the payload offset, and DecodeOptions.Tolerate salvages the well-formed
// prefix of a damaged stream (see errors.go).

const (
	magic        = "VIOT"
	formatVer    = 1
	flagCompress = 1
)

// EncodeOptions controls trace serialization.
type EncodeOptions struct {
	// Compress enables DEFLATE compression of the payload. On by default
	// via DefaultEncodeOptions.
	Compress bool
}

// DefaultEncodeOptions matches Recorder's default (compression on).
func DefaultEncodeOptions() EncodeOptions { return EncodeOptions{Compress: true} }

// Encode writes t to w.
func Encode(w io.Writer, t *Trace, opts EncodeOptions) error {
	if err := t.Validate(); err != nil {
		return fmt.Errorf("trace: refusing to encode invalid trace: %w", err)
	}
	return encode(w, t.Meta, t.Ranks, opts)
}

// encode writes a stream of the given ranks on a pooled encoder.
func encode(w io.Writer, meta map[string]string, ranks [][]Record, opts EncodeOptions) error {
	e := encoders.Get().(*encoder)
	defer e.release()
	for _, rs := range ranks {
		e.rank(rs)
	}
	return e.write(w, meta, len(ranks), opts)
}

// encoder is what writing one stream needs: the string table, the payload
// encoded into memory while the table is built, and the output buffer and
// DEFLATE compressor. The compressor runs at flate.BestSpeed, which deflates
// the repo benchmark's synthetic traces 3–6× faster than
// flate.DefaultCompression for files 5–10 % larger (19 % on
// corpus.ScalingTrace's); files deflated at any other level read alike
// (TestReadsEveryDeflateLevel), and TestCompressedBytesPerRecordCap holds the
// size. The compressor is about 1.2 MB of window, hash tables and token
// buffer, more than most rank files' payloads, so encoders are pooled and
// reset for each stream.
type encoder struct {
	index map[string]uint64 // string-table index of each string seen
	strs  []string          // the table, in the order the records first refer to each string
	buf   []byte            // the payload's rank sections, then its head (see write)
	out   *bufio.Writer
	fw    *flate.Writer
}

var encoders = &sync.Pool{New: func() any {
	return &encoder{index: make(map[string]uint64), out: bufio.NewWriterSize(nil, 64<<10)}
}}

// release empties the encoder, keeping its capacity, and pools it.
func (e *encoder) release() {
	clear(e.index)
	clear(e.strs) // the pool must not keep the trace's strings alive
	e.strs, e.buf = e.strs[:0], e.buf[:0]
	e.out.Reset(nil)
	encoders.Put(e)
}

func (e *encoder) uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

func (e *encoder) str(s string) {
	e.uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// ref appends the string-table index of s, interning s on first sight.
func (e *encoder) ref(s string) {
	i, ok := e.index[s]
	if !ok {
		i = uint64(len(e.strs))
		e.index[s] = i
		e.strs = append(e.strs, s)
	}
	e.uvarint(i)
}

// rank appends one rank's section: its record count, then the records.
func (e *encoder) rank(rs []Record) {
	e.uvarint(uint64(len(rs)))
	lastRet := int64(0)
	for i := range rs {
		r := &rs[i]
		e.ref(r.Func)
		e.buf = append(e.buf, byte(r.Layer))
		e.uvarint(uint64(r.Depth()))
		e.uvarint(uint64(r.Ret - lastRet))
		e.uvarint(uint64(r.Ret - r.Tick))
		lastRet = r.Ret
		e.ref(r.Site())
		e.uvarint(uint64(len(r.Args)))
		for _, a := range r.Args {
			e.ref(a)
		}
		for _, c := range r.Chain() {
			e.ref(c)
		}
	}
}

// write writes the header and the payload: metadata in key order, the
// string table, the rank count, then the rank sections already in buf. The
// head is appended to buf behind the sections and written before them.
func (e *encoder) write(w io.Writer, meta map[string]string, nranks int, opts EncodeOptions) error {
	sections := len(e.buf)
	keys := make([]string, 0, len(meta))
	for k := range meta {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	e.uvarint(uint64(len(keys)))
	for _, k := range keys {
		e.str(k)
		e.str(meta[k])
	}
	e.uvarint(uint64(len(e.strs)))
	for _, s := range e.strs {
		e.str(s)
	}
	e.uvarint(uint64(nranks))
	e.out.Reset(w)
	hdr := [6]byte{magic[0], magic[1], magic[2], magic[3], formatVer, 0}
	var payload io.Writer = e.out
	if opts.Compress {
		hdr[5] |= flagCompress
		if e.fw == nil {
			e.fw, _ = flate.NewWriter(e.out, flate.BestSpeed) // fails only on a bad level
		} else {
			e.fw.Reset(e.out)
		}
		payload = e.fw
	}
	// Both writers keep their first error and return it from Close and Flush.
	e.out.Write(hdr[:])
	payload.Write(e.buf[sections:])
	payload.Write(e.buf[:sections])
	if opts.Compress {
		if err := e.fw.Close(); err != nil {
			return err
		}
	}
	return e.out.Flush()
}

// Decode reads a trace previously written by Encode, with default options
// (strict mode, default limits).
func Decode(r io.Reader) (*Trace, error) {
	t, _, err := DecodeWithOptions(r, DecodeOptions{})
	return t, err
}

// DecodeWithOptions reads a trace previously written by Encode. Failures are
// reported as *DecodeError. In tolerate mode a damaged record stream yields
// the salvaged well-formed prefix and non-Clean stats instead of an error;
// damage before any records exist (header, metadata, string table) still
// fails, because nothing downstream is interpretable without them.
func DecodeWithOptions(r io.Reader, opts DecodeOptions) (*Trace, *DecodeStats, error) {
	t, stats, _, err := decodeStream(r, opts, false)
	return t, stats, err
}

// decoder reads the trace payload while tracking the exact byte offset, the
// section being decoded, and the remaining allocation budget, so every
// failure can be classified and located.
type decoder struct {
	src io.Reader     // the (decompressed) payload
	fr  io.ReadCloser // the inflater, for a compressed payload
	st  *readerState  // the pooled state src and buf come from
	// buf[r:w] is the decoder's window on the payload: read from src, not yet
	// consumed. Varints decode straight out of it.
	buf    []byte
	r, w   int
	srcErr error // src's error, reported once the bytes read before it are consumed

	off     int64 // bytes consumed from the (decompressed) payload
	lim     Limits
	budget  int64 // remaining bytes of lim.MaxPayload
	section string
	rank    int
	record  int

	// slab is the unused tail of the current string-slice slab; records'
	// Args are carved from it (see strSlice).
	slab    []string
	slabCap int
	// lent, set for Dir.ReadRank's slots, decodes each record for a step
	// valid until the next recycle: the record gets no Args, and its step
	// reads the arguments through tab, the string table with the side
	// table strTable builds beside it, by indices in tab's index scratch,
	// which the next slot overwrites. mark is the record being decoded:
	// its function's string-table index and its arguments' span of that
	// scratch.
	lent bool
	tab  *argTable
	mark argMark
	nidx int // the slot's argument indices in tab.idx so far
	// ctxs interns the stream's call contexts (see context).
	ctxs ctxTable

	spans bool // record layout spans (Layout)
	marks []Span
}

// Approximate decoded-memory cost per entity, charged against the payload
// budget: a corrupt count field costs at most its charge, never a huge
// upfront allocation. The charges are budget units, not struct sizes:
// recordOverhead and the per-chain-frame sliceEntryOverhead price a record
// as if it owned its Chain and Site, which an interned Context makes an
// upper bound. Changing them would move LimitExceeded offsets, streamed
// batch boundaries and PeakResidentBytes, so they stay put.
const (
	stringOverhead     = 16  // string header
	sliceEntryOverhead = 16  // one slice element (string header / map slot)
	recordOverhead     = 136 // one record, counted with its own chain and site
	rankOverhead       = 24  // one Ranks[] slice header
)

func (d *decoder) fail(kind ErrKind, cause error) error {
	return &DecodeError{
		Kind: kind, Section: d.section,
		Rank: d.rank, Record: d.record,
		Offset: d.off, Err: cause,
	}
}

// windowSize is bufio's default: a larger window costs the many small rank
// files of a corpus more to allocate and clear than it saves in refills.
const windowSize = 4 << 10

// fill reads the next stretch of payload into the window, which must be
// empty. It returns the raw underlying error; callers classify it.
func (d *decoder) fill() error {
	d.r, d.w = 0, 0
	for tries := 0; d.w == 0; tries++ {
		switch {
		case d.srcErr != nil:
			return d.srcErr
		case tries == 100:
			return io.ErrNoProgress
		}
		d.w, d.srcErr = d.src.Read(d.buf)
	}
	return nil
}

// Read implements io.Reader over the window; like ReadByte and fill it
// returns raw errors, and it leaves the offset to its caller.
func (d *decoder) Read(p []byte) (int, error) {
	if d.r == d.w {
		if err := d.fill(); err != nil {
			return 0, err
		}
	}
	n := copy(p, d.buf[d.r:d.w])
	d.r += n
	return n, nil
}

// ReadByte implements io.ByteReader so binary.ReadUvarint consumes the
// stream through the decoder's offset accounting.
func (d *decoder) ReadByte() (byte, error) {
	if d.r == d.w {
		if err := d.fill(); err != nil {
			return 0, err
		}
	}
	b := d.buf[d.r]
	d.r++
	d.off++
	return b, nil
}

func (d *decoder) byteField() (byte, error) {
	b, err := d.ReadByte()
	if err != nil {
		return 0, d.fail(classifyIO(err), fmt.Errorf("byte field: %w", err))
	}
	return b, nil
}

// uvarint reads one varint. One that lies whole inside the window is decoded
// straight from it — a one-byte one, most of a record's, without a call;
// anything else (a varint cut by the window's end, an over-long one) takes
// the byte-at-a-time path, which alone refills the window and alone produces
// errors — so offsets and error classes do not depend on which path ran.
func (d *decoder) uvarint() (uint64, error) {
	if r := d.r; r < d.w {
		if b := d.buf[r]; b < 0x80 {
			d.r, d.off = r+1, d.off+1
			return uint64(b), nil
		}
	}
	return d.uvarintSlow()
}

// uvarintSlow is uvarint past its one-byte case.
func (d *decoder) uvarintSlow() (uint64, error) {
	if v, n := binary.Uvarint(d.buf[d.r:d.w]); n > 0 {
		d.r += n
		d.off += int64(n)
		return v, nil
	}
	v, err := binary.ReadUvarint(d)
	if err != nil {
		// EOF mid-stream means truncation; a >64-bit varint is corruption.
		return 0, d.fail(classifyIO(err), fmt.Errorf("varint: %w", err))
	}
	return v, nil
}

func (d *decoder) charge(n int64) error {
	d.budget -= n
	if d.budget < 0 {
		return d.fail(LimitExceeded, fmt.Errorf("decoded payload exceeds %d-byte budget", d.lim.MaxPayload))
	}
	return nil
}

// strLen reads, bounds and charges the length prefix of one string.
func (d *decoder) strLen() (int, error) {
	n, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64(d.lim.MaxStringLen) {
		return 0, d.fail(LimitExceeded, fmt.Errorf("string length %d exceeds limit %d", n, d.lim.MaxStringLen))
	}
	if err := d.charge(int64(n) + stringOverhead); err != nil {
		return 0, err
	}
	return int(n), nil
}

// strBody fills buf with the next len(buf) payload bytes. A body that lies
// whole inside the window is copied straight out of it; only the io.ReadFull
// path refills the window and fails, as with uvarint.
func (d *decoder) strBody(buf []byte) error {
	if len(buf) <= d.w-d.r {
		d.r += copy(buf, d.buf[d.r:d.w])
		d.off += int64(len(buf))
		return nil
	}
	if _, err := io.ReadFull(d, buf); err != nil {
		return d.fail(classifyIO(err), fmt.Errorf("string body: %w", err))
	}
	d.off += int64(len(buf))
	return nil
}

func (d *decoder) str() (string, error) {
	n, err := d.strLen()
	if err != nil {
		return "", err
	}
	buf := make([]byte, n)
	if err := d.strBody(buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

// String-table entries are read into chunks of at most strChunk bytes; each
// chunk becomes one string and its entries substrings of it, so the table
// costs one allocation per chunk instead of two per entry. The chunk is also
// what a retained entry keeps alive, hence the small size. Longer strings
// get a chunk of their own.
const strChunk = 4 << 10

// strTable decodes n string-table entries. In lent mode it also fills the
// side table (d.tab): each entry's value as an integer, and the row it names
// as a function. A decimal there becomes no string: its entry is "" until a
// step reads it as one (see Step.Arg).
func (d *decoder) strTable(n int) ([]string, error) {
	hint := capHint(uint64(n), d.hintMax(stringOverhead, 1<<16))
	var strs []string
	if d.lent {
		d.tab.reset(hint)
		strs = d.tab.strs
	} else {
		strs = make([]string, 0, hint)
	}
	var chunk []byte
	var ends [][2]int // index and end offset in chunk of each entry since the last seal
	seal := func() {
		whole, start := string(chunk), 0
		for _, e := range ends {
			strs[e[0]] = whole[start:e[1]]
			start = e[1]
		}
		chunk, ends = chunk[:0], ends[:0]
	}
	for i := 0; i < n; i++ {
		sz, err := d.strLen()
		if err != nil {
			return nil, err
		}
		if len(chunk)+sz > strChunk {
			seal()
		}
		at := len(chunk)
		chunk = slices.Grow(chunk, sz)[:at+sz]
		if err := d.strBody(chunk[at:]); err != nil {
			return nil, err
		}
		strs = append(strs, "")
		if d.lent && d.tab.addEntry(chunk[at:]) {
			chunk = chunk[:at]
			continue
		}
		ends = append(ends, [2]int{len(strs) - 1, at + sz})
	}
	seal()
	if d.lent {
		d.tab.strs = strs
	}
	return strs, nil
}

// strAt resolves a string-table index.
func (d *decoder) strAt(strs []string, i uint64) (string, error) {
	if i >= uint64(len(strs)) {
		return "", d.fail(Corrupt, fmt.Errorf("string index %d out of table (%d entries)", i, len(strs)))
	}
	return d.entry(strs, i), nil
}

// entry is string-table entry i, which must be in range: in lent mode
// through the side table, whose decimals keep no string of their own.
func (d *decoder) entry(strs []string, i uint64) string {
	if d.lent {
		return d.tab.str(uint32(i))
	}
	return strs[i]
}

// strSlice returns room for one record's n Args: the head of a slab, so a
// record costs no allocation of its own; strRefs moves the slab past it once
// the record keeps it. A kept slice is never reused — it stays valid for as
// long as anything references it, whatever happens to the batch buffer its
// record sat in — and the three-index slice keeps an append from running
// into a neighbour. Slabs double up to slabMax strings, so a short trace
// pays for a short slab.
func (d *decoder) strSlice(n int) []string {
	if n > slabMax/4 {
		return make([]string, n)
	}
	if len(d.slab) < n {
		d.slabCap = min(max(2*d.slabCap, 64, n), slabMax)
		d.slab = make([]string, d.slabCap)
	}
	return d.slab[:n:n]
}

// slabMax is 64 KiB of string headers.
const slabMax = 4096

// argMark is where a lent record's function and arguments are: its
// function's string-table index, and its arguments' span of the index
// scratch.
type argMark struct{ fn, lo, hi uint32 }

// argIndices reads n string-table references, each range-checked, into the
// index scratch (tab.idx) after the slot's earlier records', and marks the
// record's span of it.
func (d *decoder) argIndices(strs []string, n int) error {
	t, lo := d.tab, d.nidx
	if lo+n > len(t.idx) {
		idx := make([]uint32, max(lo+n, 2*len(t.idx), 1024))
		copy(idx, t.idx[:lo])
		t.idx = idx
	}
	idx := t.idx[lo : lo+n]
	for k := range idx {
		si, err := d.uvarint()
		if err != nil {
			return err
		}
		if si >= uint64(len(strs)) {
			_, err := d.strAt(strs, si)
			return err
		}
		idx[k] = uint32(si)
	}
	d.nidx = lo + n
	d.mark.lo, d.mark.hi = uint32(lo), uint32(lo+n)
	return nil
}

// keep marks the record just decoded as record k of the slot (lent mode).
func (d *decoder) keep(k int) {
	st := d.st
	if k >= len(st.marks) {
		st.marks = append(st.marks, make([]argMark, k+1-len(st.marks))...)
		st.marks = st.marks[:cap(st.marks)]
	}
	st.marks[k] = d.mark
}

// slotSteps returns the steps of the slot's records, recs, which are where
// they will stay until the next recycle. A slot's steps mostly point where
// the last slot's did — the same record buffer, the same table — so only
// the pointers that changed are written: a pointer store, while the
// collector marks, goes through its write barrier.
func (d *decoder) slotSteps(recs []Record) []Step {
	st := d.st
	if len(recs) > cap(st.steps) {
		st.steps = make([]Step, len(recs))
	}
	steps := st.steps[:len(recs)]
	for k := range steps {
		s, m := &steps[k], st.marks[k]
		if c := d.tab.rowOf(m.fn); s.Call != c {
			s.Call = c
		}
		if rec := &recs[k]; s.Rec != rec {
			s.Rec = rec
		}
		if s.tab != d.tab {
			s.tab = d.tab
		}
		s.lo, s.hi = m.lo, m.hi
	}
	return steps
}

// recycle makes the scratch whole again for the next slot: every step, and
// every index span, handed out since the last call is dead.
func (d *decoder) recycle() {
	d.nidx = 0
}

func (d *decoder) span(name string, rank, index int, start int64) {
	if d.spans {
		d.marks = append(d.marks, Span{Name: name, Rank: rank, Index: index, Start: start, End: d.off})
	}
}

// readerState is what decoding a stream needs before its first record: the
// decoder's window on the payload and, for a compressed stream, the inflater
// with the buffered reader that feeds it. Built afresh it costs about 45 KiB
// — the inflater's 32 KiB history and Huffman tables, two 4 KiB buffers —
// which is more than a corpus rank file's records, so it is pooled and reset
// for each stream. A reset keeps nothing of the stream before: the window
// starts empty, and the inflater and its reader are reset to the new input.
type readerState struct {
	win []byte
	br  *bufio.Reader
	fr  io.ReadCloser // a flate.Resetter
	// tuples are the stream's recent argument tuples (see strRefs). The same
	// indices name other strings in the next stream, so release empties it.
	tuples [1 << tupleBits]tuple
	// In lent mode (see decoder.lent): each record's marks and the slot's
	// steps, kept for the next rank file; release clears the steps, so the
	// pool keeps no string table alive.
	marks []argMark
	steps []Step
}

var readerStates = &sync.Pool{New: func() any { return &readerState{win: make([]byte, windowSize)} }}

// openDecoder checks the 6-byte header and returns a decoder over the
// payload, inflating it when it is compressed, on pooled reader state; the
// caller gives the state back with release.
func openDecoder(r io.Reader, lim Limits, wantSpans bool) (*decoder, error) {
	hdrErr := func(kind ErrKind, cause error) error {
		return &DecodeError{Kind: kind, Section: "header", Rank: -1, Record: -1, Err: cause}
	}
	var hdr [6]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, hdrErr(Truncated, fmt.Errorf("reading header: %w", err))
	}
	if string(hdr[:4]) != magic {
		return nil, hdrErr(Corrupt, errors.New("bad magic, not a VerifyIO trace"))
	}
	if hdr[4] != formatVer {
		return nil, hdrErr(Corrupt, fmt.Errorf("unsupported format version %d", hdr[4]))
	}
	st := readerStates.Get().(*readerState)
	d := &decoder{
		src: r, st: st, buf: st.win,
		lim: lim.withDefaults(), rank: -1, record: -1, spans: wantSpans,
	}
	d.budget = d.lim.MaxPayload
	if hdr[5]&flagCompress != 0 {
		// The inflater reads its input a byte at a time: like
		// flate.NewReader, hand it r itself when r can do that, and a
		// buffered reader on r otherwise.
		br, ok := r.(flate.Reader)
		if !ok {
			if st.br == nil {
				st.br = bufio.NewReader(r)
			} else {
				st.br.Reset(r)
			}
			br = st.br
		}
		if st.fr == nil {
			st.fr = flate.NewReader(br)
		} else if err := st.fr.(flate.Resetter).Reset(br, nil); err != nil {
			d.release()
			return nil, err
		}
		d.src, d.fr = st.fr, st.fr
	}
	return d, nil
}

// release gives the decoder's pooled reader state back; the decoder reads
// nothing after it. Idempotent.
func (d *decoder) release() {
	st := d.st
	if st == nil {
		return
	}
	d.st, d.src, d.fr, d.buf, d.r, d.w = nil, nil, nil, nil, 0, 0
	if st.br != nil {
		st.br.Reset(nil) // the pool must not keep the file alive
	}
	clear(st.tuples[:])
	clear(st.steps)
	readerStates.Put(st)
}

// checkTrailer verifies a fully decoded strict stream ends cleanly: a
// payload that keeps going is corrupt, and a compressed stream must carry
// its final-block terminator (a DEFLATE payload chopped after the last
// record would otherwise pass unnoticed — the classic killed-job artifact).
// Tolerate mode never calls this: the decoded prefix is the trace.
func (d *decoder) checkTrailer() error {
	d.section, d.rank, d.record = "trailer", -1, -1
	var err error
	if d.r == d.w {
		err = d.fill()
	}
	if err == nil {
		return d.fail(Corrupt, errors.New("trailing data after trace payload"))
	} else if err != io.EOF {
		return d.fail(classifyIO(err), fmt.Errorf("stream end: %w", err))
	}
	if d.fr != nil {
		if err := d.fr.Close(); err != nil {
			return d.fail(classifyIO(err), fmt.Errorf("closing compressed payload: %w", err))
		}
	}
	return nil
}

// decodeStream is the shared implementation behind DecodeWithOptions and
// Layout: header, optional decompression, payload, end-of-stream checks.
func decodeStream(r io.Reader, opts DecodeOptions, wantSpans bool) (*Trace, *DecodeStats, []Span, error) {
	d, err := openDecoder(r, opts.Limits, wantSpans)
	if err != nil {
		return nil, nil, nil, err
	}
	defer d.release()
	t, stats, err := d.decodeTrace(opts.Tolerate)
	if err != nil {
		return nil, nil, nil, err
	}
	if !opts.Tolerate {
		if err := d.checkTrailer(); err != nil {
			return nil, nil, nil, err
		}
	}
	return t, stats, d.marks, nil
}

// decodeMetaSection decodes the metadata section — the first payload
// section, shared by the materializing decoders, the streaming path, and
// the directory prescan (which wants only this section's few bytes).
func (d *decoder) decodeMetaSection() (map[string]string, error) {
	d.section = "meta"
	sectionStart := d.off
	nmeta, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if nmeta > uint64(d.lim.MaxMeta) {
		return nil, d.fail(LimitExceeded, fmt.Errorf("metadata pair count %d exceeds limit %d", nmeta, d.lim.MaxMeta))
	}
	d.span("meta-count", -1, -1, sectionStart)
	meta := make(map[string]string, capHint(nmeta, 1<<10))
	for i := uint64(0); i < nmeta; i++ {
		k, err := d.str()
		if err != nil {
			return nil, err
		}
		v, err := d.str()
		if err != nil {
			return nil, err
		}
		if err := d.charge(2 * sliceEntryOverhead); err != nil {
			return nil, err
		}
		meta[k] = v
	}
	d.span("meta", -1, -1, sectionStart)
	return meta, nil
}

// decodeTrace materializes the whole payload by draining a payloadStream
// (stream.go) with an unbounded window: one batch per rank, each buffer
// owned outright by the resulting Trace. The streaming API shares the same
// core, so the two ingestion modes cannot drift apart.
func (d *decoder) decodeTrace(tolerate bool) (*Trace, *DecodeStats, error) {
	ps, err := newPayloadStream(d)
	if err == nil {
		err = ps.start(tolerate)
	}
	if err != nil {
		return nil, nil, err
	}
	t := New(ps.nranks)
	t.Meta = ps.meta
	for {
		b, err := ps.nextBatch(nil, 0)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, err
		}
		if len(b.recs) == 0 {
			continue
		}
		if existing := t.Ranks[b.rank]; len(existing) > 0 {
			t.Ranks[b.rank] = append(existing, b.recs...)
		} else {
			t.Ranks[b.rank] = b.recs
		}
	}
	stats, err := ps.finish()
	if err != nil {
		return nil, nil, err
	}
	return t, stats, nil
}

// decodeRecord decodes the next record into *rec, overwriting every field
// (rec may be a recycled batch slot). On error *rec is garbage.
func (d *decoder) decodeRecord(rec *Record, strs []string, rank, seq int, lastRet *int64) error {
	rec.Rank, rec.Seq = rank, seq
	fi, err := d.uvarint()
	if err != nil {
		return err
	}
	if rec.Func, err = d.strAt(strs, fi); err != nil {
		return err
	}
	lb, err := d.byteField()
	if err != nil {
		return err
	}
	rec.Layer = Layer(lb)
	depthStart := d.off
	depth, err := d.uvarint()
	if err != nil {
		return err
	}
	if depth > uint64(d.lim.MaxDepth) {
		return d.fail(LimitExceeded, fmt.Errorf("call depth %d exceeds limit %d", depth, d.lim.MaxDepth))
	}
	d.span("depth", d.rank, seq, depthStart)
	dt, err := d.uvarint()
	if err != nil {
		return err
	}
	rec.Ret = *lastRet + int64(dt)
	dr, err := d.uvarint()
	if err != nil {
		return err
	}
	rec.Tick = rec.Ret - int64(dr)
	*lastRet = rec.Ret
	si, err := d.uvarint()
	if err != nil {
		return err
	}
	site, err := d.strAt(strs, si)
	if err != nil {
		return err
	}
	nargs, err := d.uvarint()
	if err != nil {
		return err
	}
	if nargs > uint64(d.lim.MaxArgs) {
		return d.fail(LimitExceeded, fmt.Errorf("arg count %d exceeds limit %d", nargs, d.lim.MaxArgs))
	}
	if err := d.charge(recordOverhead + int64(nargs+depth)*sliceEntryOverhead); err != nil {
		return err
	}
	if d.lent {
		if rec.Args != nil {
			rec.Args = nil
		}
		d.mark.fn = uint32(fi)
		err = d.argIndices(strs, int(nargs))
	} else {
		rec.Args, err = d.strRefs(strs, int(nargs))
	}
	if err != nil {
		return err
	}
	rec.Ctx, err = d.context(strs, si, site, int(depth))
	return err
}

// strRefs decodes n string-table references; nil when n is zero. A tuple
// of at most tupleMax references that repeats one in the stream's tuple
// table gets that record's slice, shared and read-only like a Context, and
// leaves the slab room it was read into for the next record; any other
// keeps the room. Every index is read and range-checked either way, so
// errors and their offsets do not depend on the table.
func (d *decoder) strRefs(strs []string, n int) ([]string, error) {
	if n == 0 {
		return nil, nil
	}
	out := d.strSlice(n)
	keyed := n <= tupleMax && uint64(len(strs)) <= math.MaxUint32
	var key [tupleMax]uint32
	h := uint64(n)
	for i := range out {
		si, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if out[i], err = d.strAt(strs, si); err != nil {
			return nil, err
		}
		if keyed {
			key[i] = uint32(si)
			h = (h ^ si) * 0x9e3779b97f4a7c15
		}
	}
	if keyed {
		t := &d.st.tuples[h>>(64-tupleBits)]
		if len(t.args) == n && t.key == key {
			return t.args, nil
		}
		*t = tuple{key: key, args: out}
	}
	if n <= slabMax/4 {
		d.slab = d.slab[n:]
	}
	return out, nil
}

// tuple is one entry of a stream's direct-mapped argument-tuple table: a
// record's Args and the string-table indices they were decoded from, zero
// past len(args).
type tuple struct {
	key  [tupleMax]uint32
	args []string
}

// A tuple table has 1<<tupleBits entries; longer tuples bypass it.
const (
	tupleBits = 6
	tupleMax  = 8
)

// ctxTable interns a stream's call contexts by their string-table indices:
// the site's, then the chain's frames', as varints. Consecutive records
// mostly share one context, so the previous one is compared first.
type ctxTable struct {
	byKey   map[string]*Context
	key     []byte // the record being decoded
	lastKey []byte
	last    *Context
	frames  []uint64 // the record's chain indices
}

// context decodes the record's depth chain indices, following its site
// (string-table index si, resolved to site), and returns the stream's one
// Context for them: nil, without a lookup, at depth 0 with an empty site.
func (d *decoder) context(strs []string, si uint64, site string, depth int) (*Context, error) {
	if depth == 0 && site == "" {
		return nil, nil
	}
	t := &d.ctxs
	t.key = binary.AppendUvarint(t.key[:0], si)
	t.frames = t.frames[:0]
	for range depth {
		ci, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if _, err := d.strAt(strs, ci); err != nil {
			return nil, err
		}
		t.key = binary.AppendUvarint(t.key, ci)
		t.frames = append(t.frames, ci)
	}
	if t.last != nil && string(t.key) == string(t.lastKey) {
		return t.last, nil
	}
	c := t.byKey[string(t.key)]
	if c == nil {
		c = &Context{Site: site}
		if depth > 0 {
			c.Chain = make([]string, depth)
			for i, ci := range t.frames {
				c.Chain[i] = d.entry(strs, ci)
			}
		}
		if t.byKey == nil {
			t.byKey = make(map[string]*Context)
		}
		t.byKey[string(t.key)] = c
	}
	t.last, t.lastKey = c, append(t.lastKey[:0], t.key...)
	return c, nil
}

// capHint bounds an attacker-controlled count to a sane initial slice or
// map capacity; real growth beyond it goes through append and is paid for
// by the byte budget.
func capHint(n uint64, max int) int {
	if max < 0 {
		max = 0
	}
	if n < uint64(max) {
		return int(n)
	}
	return max
}

// hintMax caps an initial-capacity hint so even the hint allocation stays
// inside the remaining payload budget.
func (d *decoder) hintMax(perEntry int64, max int) int {
	if m := d.budget / perEntry; m < int64(max) {
		return int(m)
	}
	return max
}

// WriteDir stores the trace as a directory: one file per rank plus metadata,
// the on-disk layout Recorder uses (one stream per process). The rank files
// are encoded and written concurrently, on up to GOMAXPROCS goroutines.
func WriteDir(dir string, t *Trace, opts EncodeOptions) error {
	return writeDir(dir, t, opts, runtime.GOMAXPROCS(0))
}

// writeDir is WriteDir on up to writers goroutines. Each rank file is a
// complete single-rank trace, encoded straight from the rank's records;
// metadata travels in rank 0's file plus a rank-count entry. The format
// stores no record's Rank or Seq, so only the tick invariants are checked,
// every rank's before any file is created. A failed write returns the
// lowest failing rank's error.
func writeDir(dir string, t *Trace, opts EncodeOptions, writers int) error {
	for rank, rs := range t.Ranks {
		if err := validateRank(rank, rs, false); err != nil {
			return fmt.Errorf("trace: refusing to encode invalid trace: %w", err)
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	nranks := strconv.Itoa(len(t.Ranks))
	errs := make([]error, len(t.Ranks))
	par.Do(writers, len(t.Ranks), func(rank int) {
		meta := make(map[string]string, 2)
		if rank == 0 {
			maps.Copy(meta, t.Meta)
		}
		meta["verifyio.rank"], meta["verifyio.nranks"] = strconv.Itoa(rank), nranks
		f, err := os.Create(filepath.Join(dir, rankFileName(rank)))
		if err == nil {
			err = encode(f, meta, t.Ranks[rank:rank+1], opts)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		errs[rank] = err
	})
	return cmp.Or(errs...)
}

// rankFileName is the name of a rank's file inside a trace directory.
func rankFileName(rank int) string { return fmt.Sprintf("rank-%d.viot", rank) }

// ReadDir loads a trace directory written by WriteDir, with default options.
func ReadDir(dir string) (*Trace, error) {
	t, _, err := ReadDirWithOptions(dir, DecodeOptions{})
	return t, err
}

// ReadDirWithOptions loads a trace directory written by WriteDir. In
// tolerate mode, rank files that are damaged mid-stream contribute their
// salvaged prefix, and files that are missing or unreadable leave an empty
// rank stream; both are reported per rank in the stats. The rank files are
// decoded concurrently, on up to GOMAXPROCS goroutines.
func ReadDirWithOptions(dir string, opts DecodeOptions) (*Trace, *DecodeStats, error) {
	return readDir(dir, opts, runtime.GOMAXPROCS(0))
}

// readDir is ReadDirWithOptions on up to readers goroutines.
func readDir(dir string, opts DecodeOptions, readers int) (*Trace, *DecodeStats, error) {
	d, err := OpenDir(dir, StreamOptions{DecodeOptions: opts, WindowBytes: WindowUnbounded}, readers)
	if err != nil {
		return nil, nil, err
	}
	defer d.Close()
	return d.materialize(readers)
}
