package trace

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"verifyio/internal/obs"
)

// Streaming, bounded-memory trace ingestion.
//
// The materializing decoders (Decode, ReadDir) hold every record of every
// rank resident before analysis starts, so peak memory is O(trace size). The
// Stream below is the pull-based alternative: it yields per-rank record
// batches in rank-major order, each batch bounded by a byte window, with an
// explicit Release that returns the batch buffer to the stream's pool. A
// consumer that releases each batch after processing it keeps peak decoded
// memory bounded by the window (plus the current file's string table), not by
// the trace.
//
// Both decoders share one record-decoding core (payloadStream), so streaming
// and materializing ingestion are behaviorally identical: the same Limits
// bound every allocation, the same DecodeErrors classify every failure, and
// tolerate-mode salvage keeps exactly the same per-rank prefixes with the
// same DecodeStats. ReadDirWithOptions is a thin wrapper that drains a
// Stream with an unbounded window.

// DefaultWindowBytes is the decoded-cost budget of one batch when
// StreamOptions.WindowBytes is zero: enough to amortize per-batch overhead,
// small enough that a multi-GB trace never has more than a few MB of records
// resident.
const DefaultWindowBytes = 4 << 20

// WindowUnbounded disables batch windowing: each rank arrives as a single
// batch (the materializing wrapper keeps that batch's buffer as the rank's
// record slice instead of copying the rank).
const WindowUnbounded = -1

// StreamOptions controls streaming ingestion. DecodeOptions (Limits,
// Tolerate, Obs) mean exactly what they mean for the materializing decoders.
type StreamOptions struct {
	DecodeOptions
	// WindowBytes bounds the decoded cost of one batch, in the same units
	// the payload budget (Limits.MaxPayload) is charged: string bytes plus
	// per-entity bookkeeping overhead. Zero selects DefaultWindowBytes;
	// WindowUnbounded (or any negative value) disables windowing.
	WindowBytes int64
}

// Batch is one contiguous run of a single rank's records, in program order.
// Recs[i].Seq == Start+i. The batch's buffer belongs to the Stream: call
// Release when done with it (and do not retain Recs after), or keep the
// records and never release — but not both.
type Batch struct {
	Rank  int
	Start int
	Recs  []Record

	cost int64
	s    *Stream
}

// Release returns the batch buffer to the stream's pool and credits its cost
// against the resident-bytes accounting.
//
// The pool contract for consumers (the analysis stages, the DFG builder):
// copy out anything you need before releasing — the buffer is recycled for
// a later batch, so retained Recs are silently overwritten. Release is
// idempotent: the first call severs the batch from its stream, so a second
// call is a no-op rather than a double-free (the buffer can never be pushed
// into the pool twice, and the resident accounting is credited exactly
// once).
func (b *Batch) Release() {
	if b == nil || b.s == nil {
		return
	}
	s := b.s
	s.resident -= b.cost
	s.putBuf(b.Recs)
	b.s = nil
	b.Recs = nil
}

// Stream decodes a trace incrementally, yielding per-rank record batches in
// rank-major order (all of rank 0's batches, then rank 1's, ...). It is not
// safe for concurrent use.
type Stream struct {
	opts   StreamOptions
	window int64

	// Single-reader mode (NewStream): one payload carrying every rank.
	single *streamSource

	// Directory mode (OpenStream): one single-rank file per world rank.
	dir      string
	names    map[int]string // world rank -> file name (exactly the names WriteDir gives)
	order    []int          // ranks with readable files, ascending
	idx      int            // next index into order
	failed   map[int]error  // tolerate: files that salvaged nothing
	cur      *streamSource
	curRank  int
	rankSpan *obs.Span

	nranks int
	meta   map[string]string // trace-level meta (verifyio.* keys stripped)
	counts []int             // per-world-rank emitted record counts
	stats  *DecodeStats
	done   bool

	oc   obs.Ctx
	span *obs.Span // directory mode: the "read-trace" span

	resident int64
	peak     int64
	pool     [][]Record

	err    error // sticky failure
	closed bool
}

// streamSource is one open payload being decoded.
type streamSource struct {
	f  *os.File // nil in single-reader mode
	fr io.ReadCloser
	d  *decoder
	ps *payloadStream
}

func (src *streamSource) close() {
	if src.fr != nil {
		src.fr.Close()
		src.fr = nil
	}
	if src.f != nil {
		src.f.Close()
		src.f = nil
	}
}

// NewStream starts streaming one encoded trace stream (the format Encode
// writes). Batches cover every rank the stream declares, in rank-major
// order. Header, metadata, or string-table damage fails here; later damage
// surfaces from Next exactly as DecodeWithOptions would report it.
func NewStream(r io.Reader, opts StreamOptions) (*Stream, error) {
	src, err := openSource(r, opts.DecodeOptions)
	if err != nil {
		return nil, err
	}
	s := &Stream{
		opts:   opts,
		window: resolveWindow(opts.WindowBytes),
		single: src,
		nranks: src.ps.nranks,
		meta:   src.ps.meta,
		counts: make([]int, src.ps.nranks),
		oc:     opts.Obs,
	}
	src.ps.outgrown = s.putBuf
	s.setWindowGauge()
	return s, nil
}

// OpenStream starts streaming a trace directory written by WriteDir: one
// batch run per world rank, ranks ascending. The directory's shape (rank
// count, missing files) is validated up front by decoding each file's
// metadata section; record damage surfaces from Next with the semantics of
// ReadDirWithOptions — strict mode fails, tolerate mode salvages per-rank
// prefixes and reports them in Stats.
func OpenStream(dir string, opts StreamOptions) (*Stream, error) {
	oc, span := opts.Obs.Start("read-trace", obs.String("dir", dir))
	span.SetCat("decode")
	s := &Stream{
		opts:    opts,
		window:  resolveWindow(opts.WindowBytes),
		dir:     dir,
		names:   make(map[int]string),
		failed:  make(map[int]error),
		curRank: -1,
		meta:    make(map[string]string),
		oc:      oc,
		span:    span,
	}
	if err := s.scanDir(); err != nil {
		span.End()
		return nil, err
	}
	s.setWindowGauge()
	return s, nil
}

func resolveWindow(w int64) int64 {
	switch {
	case w == 0:
		return DefaultWindowBytes
	case w < 0:
		return 0 // unbounded
	default:
		return w
	}
}

func (s *Stream) setWindowGauge() {
	if s.window > 0 {
		s.oc.R.Gauge("decode.window_bytes").Set(s.window)
	}
}

// scanDir enumerates the rank files and decodes each one's metadata section
// (a few bytes per file) to resolve the world rank count and run the strict
// completeness checks before any records decode.
func (s *Stream) scanDir() error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return err
	}
	maxRank := -1
	for _, e := range entries {
		// Only the exact name WriteDir gives a rank counts. Sscanf alone
		// accepts any suffix and non-canonical digits, and a backup or a
		// partial copy ("rank-3.viot~", "rank-03.viot") must never stand in
		// for the rank's file.
		var rank int
		if _, err := fmt.Sscanf(e.Name(), "rank-%d.viot", &rank); err != nil ||
			rank < 0 || e.Name() != rankFileName(rank) {
			continue
		}
		s.names[rank] = e.Name()
		if rank > maxRank {
			maxRank = rank
		}
	}
	nranks := -1
	readable := 0
	ranks := make([]int, 0, len(s.names))
	for rank := range s.names {
		ranks = append(ranks, rank)
	}
	sort.Ints(ranks)
	for _, rank := range ranks {
		meta, err := s.prescanFile(s.names[rank])
		if err != nil {
			if de, ok := AsDecodeError(err); ok && de.Rank == 0 {
				de.Rank = rank
			}
			if !s.opts.Tolerate {
				return fmt.Errorf("trace: %s: %w", s.names[rank], err)
			}
			s.failed[rank] = err
			continue
		}
		readable++
		s.order = append(s.order, rank)
		if n := meta["verifyio.nranks"]; n != "" {
			fmt.Sscanf(n, "%d", &nranks)
		}
		if rank == 0 {
			for k, v := range meta {
				switch k {
				case "verifyio.rank", "verifyio.nranks":
				default:
					s.meta[k] = v
				}
			}
		}
	}
	if readable == 0 && len(s.failed) == 0 {
		return fmt.Errorf("trace: no rank files in %s", s.dir)
	}
	if nranks < 0 || (s.opts.Tolerate && maxRank+1 > nranks) {
		nranks = maxRank + 1
	}
	// The rank count came from file names and metadata — input, not ground
	// truth. Bound it like any other decoded count.
	if lim := s.opts.Limits.withDefaults(); nranks > lim.MaxRanks {
		if !s.opts.Tolerate {
			return &DecodeError{
				Kind: LimitExceeded, Section: "directory", Rank: -1, Record: -1,
				Err: fmt.Errorf("rank count %d exceeds limit %d", nranks, lim.MaxRanks),
			}
		}
		nranks = lim.MaxRanks
	}
	if !s.opts.Tolerate {
		if readable != nranks {
			return fmt.Errorf("trace: directory holds %d rank files, metadata says %d ranks", readable, nranks)
		}
		for rank := 0; rank < nranks; rank++ {
			if _, ok := s.names[rank]; !ok {
				return fmt.Errorf("trace: missing rank file for rank %d", rank)
			}
		}
	}
	s.nranks = nranks
	s.counts = make([]int, nranks)
	// Drop files beyond the resolved rank count (a clamped tolerate run).
	for len(s.order) > 0 && s.order[len(s.order)-1] >= nranks {
		s.order = s.order[:len(s.order)-1]
	}
	return nil
}

// prescanFile decodes the header and metadata section of one rank file.
func (s *Stream) prescanFile(name string) (map[string]string, error) {
	f, err := os.Open(filepath.Join(s.dir, name))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	payload, fr, err := openPayload(f)
	if err != nil {
		return nil, err
	}
	if fr != nil {
		defer fr.Close()
	}
	d := newDecoder(payload, s.opts.Limits, false)
	return d.decodeMetaSection()
}

// openSource opens one encoded stream: header checks, decompression, and the
// eager sections (metadata, string table, rank count).
func openSource(r io.Reader, opts DecodeOptions) (*streamSource, error) {
	payload, fr, err := openPayload(r)
	if err != nil {
		return nil, err
	}
	d := newDecoder(payload, opts.Limits, false)
	ps, err := newPayloadStream(d, opts.Tolerate)
	if err != nil {
		if fr != nil {
			fr.Close()
		}
		return nil, err
	}
	return &streamSource{fr: fr, d: d, ps: ps}, nil
}

// NumRanks returns the world rank count (known before any batch decodes).
func (s *Stream) NumRanks() int { return s.nranks }

// Meta returns the trace-level metadata (directory mode: rank 0's file,
// minus the verifyio.* bookkeeping keys — what the materialized Trace.Meta
// holds).
func (s *Stream) Meta() map[string]string { return s.meta }

// Counts returns the per-rank emitted record counts so far; after Next has
// returned io.EOF it is the full per-rank record count of the trace.
func (s *Stream) Counts() []int { return s.counts }

// Stats returns the tolerate-mode salvage stats. It is only complete after
// Next has returned io.EOF.
func (s *Stream) Stats() *DecodeStats {
	if s.stats == nil {
		return &DecodeStats{}
	}
	return s.stats
}

// Next returns the next batch, or io.EOF when the trace is exhausted (after
// which Stats and Counts are final). Errors are classified like the
// materializing decoders'; after an error the stream is dead.
func (s *Stream) Next() (*Batch, error) {
	if s.err != nil {
		return nil, s.err
	}
	if s.closed {
		return nil, errors.New("trace: stream closed")
	}
	if s.done {
		return nil, io.EOF
	}
	var b *Batch
	var err error
	if s.single != nil {
		b, err = s.nextSingle()
	} else {
		b, err = s.nextDir()
	}
	if err != nil {
		if err != io.EOF {
			s.err = err
		} else {
			s.done = true
			s.finalize()
		}
		return nil, err
	}
	s.counts[b.Rank] += len(b.Recs)
	s.resident += b.cost
	if s.resident > s.peak {
		s.peak = s.resident
	}
	return b, nil
}

func (s *Stream) nextSingle() (*Batch, error) {
	src := s.single
	for {
		buf := s.takeBuf()
		b, err := src.ps.nextBatch(buf, s.window)
		if err == io.EOF {
			s.putBuf(buf)
			stats, ferr := src.ps.finish()
			if ferr == nil && !s.opts.Tolerate {
				ferr = src.d.checkTrailer(src.fr)
			}
			if ferr != nil {
				return nil, ferr
			}
			s.stats = stats
			return nil, io.EOF
		}
		if err != nil {
			return nil, err
		}
		if len(b.recs) == 0 {
			continue
		}
		return &Batch{Rank: b.rank, Start: b.start, Recs: b.recs, cost: b.cost, s: s}, nil
	}
}

func (s *Stream) nextDir() (*Batch, error) {
	for {
		if s.cur == nil {
			if s.idx >= len(s.order) {
				s.finishDirStats()
				return nil, io.EOF
			}
			rank := s.order[s.idx]
			s.idx++
			if err := s.openRank(rank); err != nil {
				if !s.opts.Tolerate {
					return nil, err
				}
				continue // recorded in failed[rank]
			}
		}
		buf := s.takeBuf()
		b, err := s.cur.ps.nextBatch(buf, s.window)
		if err == io.EOF {
			s.putBuf(buf) // the end of a payload uses no buffer
			if err := s.closeRank(); err != nil {
				return nil, err
			}
			continue
		}
		if err != nil {
			// Tolerate-mode record damage is salvaged inside nextBatch, so
			// an error here is strict mode failing — name the file, remap
			// the in-file rank to the world rank, and stop.
			s.remapErr(err, s.curRank)
			return nil, fmt.Errorf("trace: %s: %w", s.names[s.curRank], err)
		}
		// Each file is a single-rank trace; batches for any other in-file
		// rank are decoded (for error fidelity) but not part of the world
		// trace.
		if b.rank != s.curRank {
			s.putBuf(b.recs)
			continue
		}
		if len(b.recs) == 0 {
			continue
		}
		return &Batch{Rank: b.rank, Start: b.start, Recs: b.recs, cost: b.cost, s: s}, nil
	}
}

// openRank opens the rank's file and decodes its eager sections. Failures in
// tolerate mode are recorded (the rank salvages nothing) and reported as a
// nil source.
func (s *Stream) openRank(rank int) error {
	name := s.names[rank]
	f, err := os.Open(filepath.Join(s.dir, name))
	if err != nil {
		if s.opts.Tolerate {
			s.failed[rank] = err
			return err
		}
		return err
	}
	_, rankSpan := s.oc.Start("read-rank", obs.Int("rank", rank))
	src, err := openSource(f, s.opts.DecodeOptions)
	if err != nil {
		rankSpan.End()
		f.Close()
		s.remapErr(err, rank)
		if s.opts.Tolerate {
			s.failed[rank] = err
			return err
		}
		return fmt.Errorf("trace: %s: %w", name, err)
	}
	src.f = f
	src.ps.rankOff = rank
	src.ps.outgrown = s.putBuf
	s.cur, s.curRank, s.rankSpan = src, rank, rankSpan
	return nil
}

// closeRank finishes the current rank file: salvage stats, strict trailer
// checks, span end.
func (s *Stream) closeRank() error {
	src, rank := s.cur, s.curRank
	stats, ferr := src.ps.finish()
	if ferr == nil && !s.opts.Tolerate {
		ferr = src.d.checkTrailer(src.fr)
	}
	src.close()
	s.rankSpan.End()
	s.cur, s.curRank, s.rankSpan = nil, -1, nil
	if ferr != nil {
		// finish only fails in strict mode (tolerate salvages).
		s.remapErr(ferr, rank)
		return fmt.Errorf("trace: %s: %w", s.names[rank], ferr)
	}
	// The file's salvage stats are for its in-file ranks; report the world
	// rank the file name declares.
	if s.stats == nil {
		s.stats = &DecodeStats{}
	}
	for _, rr := range stats.Ranks {
		s.remapErr(rr.Err, rank)
		rr.Rank = rank
		s.stats.Ranks = append(s.stats.Ranks, rr)
	}
	return nil
}

// remapErr rewrites a single-rank file's in-file rank 0 to the world rank.
func (s *Stream) remapErr(err error, rank int) {
	if de, ok := AsDecodeError(err); ok && de.Rank == 0 {
		de.Rank = rank
	}
}

// finishDirStats adds the entries for ranks that contributed nothing: files
// that failed to open or decode, and ranks with no file at all.
func (s *Stream) finishDirStats() {
	if s.stats == nil {
		s.stats = &DecodeStats{}
	}
	if s.opts.Tolerate {
		present := make(map[int]bool, len(s.order))
		for _, r := range s.order {
			if s.failed[r] == nil {
				present[r] = true
			}
		}
		for rank := 0; rank < s.nranks; rank++ {
			if present[rank] {
				continue
			}
			err := s.failed[rank]
			if err == nil {
				err = &DecodeError{
					Kind: Truncated, Section: "directory",
					Rank: rank, Record: -1,
					Err: errors.New("missing rank file"),
				}
			}
			s.stats.Ranks = append(s.stats.Ranks, RankRecovery{Rank: rank, Salvaged: 0, Dropped: -1, Err: err})
		}
	}
	sort.Slice(s.stats.Ranks, func(i, j int) bool { return s.stats.Ranks[i].Rank < s.stats.Ranks[j].Rank })
}

// finalize publishes the end-of-stream telemetry and ends the read-trace
// span.
func (s *Stream) finalize() {
	if r := s.oc.R; r != nil {
		decoded := 0
		for _, n := range s.counts {
			decoded += n
		}
		r.Counter("trace.records_decoded").Add(int64(decoded))
		r.Counter("trace.ranks_salvaged").Add(int64(len(s.Stats().Ranks)))
		r.Counter("trace.records_salvaged").Add(int64(s.Stats().Salvaged()))
		dropped, _ := s.Stats().Dropped()
		r.Counter("trace.records_dropped").Add(int64(dropped))
		r.Gauge("decode.peak_resident_bytes").SetMax(s.peak)
	}
	if s.span != nil {
		s.span.End()
		s.span = nil
	}
}

// PeakResidentBytes reports the high-water mark of unreleased batch cost —
// the quantity the decode.peak_resident_bytes gauge exports.
func (s *Stream) PeakResidentBytes() int64 { return s.peak }

// Close releases the stream's resources. It is idempotent; a stream that
// already returned io.EOF needs no Close but tolerates one.
func (s *Stream) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	if s.cur != nil {
		s.cur.close()
		s.rankSpan.End()
		s.cur, s.rankSpan = nil, nil
	}
	if s.single != nil {
		s.single.close()
		s.single = nil
	}
	if r := s.oc.R; r != nil {
		r.Gauge("decode.peak_resident_bytes").SetMax(s.peak)
	}
	if s.span != nil {
		s.span.End()
		s.span = nil
	}
	return nil
}

func (s *Stream) putBuf(buf []Record) {
	if cap(buf) > 0 {
		s.pool = append(s.pool, buf[:0])
	}
}

func (s *Stream) takeBuf() []Record {
	if n := len(s.pool); n > 0 {
		buf := s.pool[n-1]
		s.pool = s.pool[:n-1]
		return buf
	}
	return nil
}

// ---------------------------------------------------------------------------
// payloadStream: the shared incremental record-decoding core.

// rawBatch is one decoded run of records before any world-rank renumbering.
type rawBatch struct {
	rank  int
	start int
	recs  []Record
	cost  int64
}

type pendingTrim struct{ rank, keep, total int }

// payloadStream decodes the payload of one encoded trace incrementally. It
// is the single implementation behind both the materializing decodeTrace and
// the streaming API: newPayloadStream eagerly decodes the metadata, string
// table, and rank count; nextBatch then decodes records on demand; finish
// runs the deferred validation and assembles the salvage stats.
type payloadStream struct {
	d        *decoder
	tolerate bool

	meta   map[string]string
	strs   []string
	nranks int
	// rankOff is added to the in-file rank to give Record.Rank and the batch
	// rank: a directory's single-rank files decode straight to their world
	// rank. Errors and salvage entries keep the in-file rank.
	rankOff int
	// outgrown, when set, takes each record buffer a batch has grown out of
	// (see growRecs), so the next batch can start from it instead of
	// allocating the same ladder of buffers again.
	outgrown func([]Record)

	// Cursor state for the records section.
	rank    int  // current rank; nranks once the section is exhausted
	inRank  bool // the current rank's record count has been read
	nrec    int
	next    int // next record index within the current rank
	lastRet int64

	// Incremental trace-invariant tracking — the streaming equivalent of
	// validRecordPrefix: records at or past the first violating index are
	// decoded (offsets, budget, and later errors must match the
	// materializing path) but never emitted.
	validRet int64
	cut      int // first invariant-violating index of this rank, -1 if none

	// Strict mode: the first invariant violation anywhere, reported from
	// finish exactly as Trace.Validate would after a full decode.
	violation error

	entries []RankRecovery // decode-failure salvage entries (tolerate)
	trims   []pendingTrim  // deferred invariant-trim entries (tolerate)
	damaged map[int]bool
	done    bool
}

// newPayloadStream decodes the eager sections. Damage here fails in both
// modes: nothing downstream is interpretable without them.
func newPayloadStream(d *decoder, tolerate bool) (*payloadStream, error) {
	ps := &payloadStream{d: d, tolerate: tolerate}
	if tolerate {
		ps.damaged = make(map[int]bool)
	}
	var err error
	if ps.meta, err = d.decodeMetaSection(); err != nil {
		return nil, err
	}

	d.section = "string-table"
	sectionStart := d.off
	nstrs, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if nstrs > uint64(d.lim.MaxStrings) {
		return nil, d.fail(LimitExceeded, fmt.Errorf("string table size %d exceeds limit %d", nstrs, d.lim.MaxStrings))
	}
	d.span("string-count", -1, -1, sectionStart)
	if ps.strs, err = d.strTable(int(nstrs)); err != nil {
		return nil, err
	}
	d.span("string-table", -1, -1, sectionStart)

	d.section = "records"
	sectionStart = d.off
	nranks, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if nranks > uint64(d.lim.MaxRanks) {
		return nil, d.fail(LimitExceeded, fmt.Errorf("rank count %d exceeds limit %d", nranks, d.lim.MaxRanks))
	}
	if err := d.charge(int64(nranks) * rankOverhead); err != nil {
		return nil, err
	}
	d.span("nranks", -1, -1, sectionStart)
	ps.nranks = int(nranks)
	return ps, nil
}

// markLost records that every rank from `from` on is gone with its record
// count unknown (the stream is unsyncable past the cut).
func (ps *payloadStream) markLost(from int, err error) {
	for r := from; r < ps.nranks; r++ {
		ps.entries = append(ps.entries, RankRecovery{Rank: r, Salvaged: 0, Dropped: -1, Err: err})
		ps.damaged[r] = true
	}
}

// nextBatch decodes records into buf (reused when non-nil) until the decoded
// cost reaches maxCost or the current rank's records end; batches never span
// ranks, so with maxCost <= 0 each rank arrives as one batch. It returns
// io.EOF once the records section is exhausted; the caller must then call
// finish (and, in strict mode, the trailer checks). In tolerate mode record
// damage never surfaces as an error: the partial batch holding the salvaged
// tail is returned and the next call reports io.EOF.
func (ps *payloadStream) nextBatch(buf []Record, maxCost int64) (rawBatch, error) {
	d := ps.d
	for {
		if ps.done {
			return rawBatch{}, io.EOF
		}
		if !ps.inRank {
			if ps.rank >= ps.nranks {
				ps.done = true
				d.rank, d.record = -1, -1
				return rawBatch{}, io.EOF
			}
			d.rank, d.record = ps.rank, -1
			countStart := d.off
			nrec, err := d.uvarint()
			if err == nil && nrec > uint64(d.lim.MaxRecords) {
				err = d.fail(LimitExceeded, fmt.Errorf("record count %d exceeds limit %d", nrec, d.lim.MaxRecords))
			}
			if err != nil {
				if ps.tolerate {
					ps.markLost(ps.rank, err)
					ps.done = true
					d.rank, d.record = -1, -1
					return rawBatch{}, io.EOF
				}
				return rawBatch{}, err
			}
			d.span("rank-count", ps.rank, -1, countStart)
			ps.inRank = true
			ps.nrec = int(nrec)
			ps.next = 0
			ps.lastRet = 0
			ps.validRet = -1
			ps.cut = -1
		}
		b := rawBatch{rank: ps.rank + ps.rankOff, start: ps.next, recs: buf[:0]}
		buf = nil
		// room is the most records this batch can take: each costs at least
		// recordOverhead, and the batch closes once its cost reaches maxCost.
		room := ps.nrec - ps.next
		if maxCost > 0 {
			room = min(room, int(maxCost/recordOverhead)+1)
		}
		for ps.next < ps.nrec {
			d.record = ps.next
			recStart := d.off
			budget0 := d.budget
			// Decode in place into the slot past the batch's tail; the slot
			// joins the batch only if the record decodes and is valid.
			n := len(b.recs)
			if n == cap(b.recs) {
				old := b.recs
				b.recs = d.growRecs(old, room)
				if ps.outgrown != nil {
					ps.outgrown(old)
				}
			}
			rec := &b.recs[:n+1][n]
			if err := d.decodeRecord(rec, ps.strs, b.rank, ps.next, &ps.lastRet); err != nil {
				if !ps.tolerate {
					return rawBatch{}, err
				}
				keep := ps.next
				if ps.cut >= 0 {
					keep = ps.cut
				}
				ps.entries = append(ps.entries, RankRecovery{
					Rank: ps.rank, Salvaged: keep, Dropped: ps.nrec - keep, Err: err,
				})
				ps.damaged[ps.rank] = true
				ps.markLost(ps.rank+1, err)
				ps.done = true
				d.rank, d.record = -1, -1
				if len(b.recs) > 0 {
					return b, nil
				}
				return rawBatch{}, io.EOF
			}
			cost := budget0 - d.budget
			d.span("record", ps.rank, ps.next, recStart)
			ps.next++
			if ps.cut < 0 {
				if rec.Ret <= ps.validRet || rec.Ret < rec.Tick || rec.Tick < 0 {
					ps.cut = ps.next - 1
					if !ps.tolerate && ps.violation == nil {
						ps.violation = invariantError(ps.rank, ps.next-1, rec, ps.validRet)
					}
				} else {
					ps.validRet = rec.Ret
					b.recs = b.recs[:n+1]
					b.cost += cost
				}
			}
			if maxCost > 0 && b.cost >= maxCost {
				break
			}
		}
		if ps.next >= ps.nrec {
			// Rank finished cleanly; a rank that decoded records violating
			// the invariants is trimmed — deferred so the stats entry can
			// carry the final payload offset, as the materializing trim
			// pass does.
			d.record = -1
			if ps.tolerate && ps.cut >= 0 && !ps.damaged[ps.rank] {
				ps.trims = append(ps.trims, pendingTrim{rank: ps.rank, keep: ps.cut, total: ps.nrec})
			}
			ps.rank++
			ps.inRank = false
		}
		if len(b.recs) > 0 {
			return b, nil
		}
	}
}

// A record buffer starts at no more than minRecCap records and grows by
// recGrowth: an honest rank allocates about recGrowth/(recGrowth-1) times its
// records in total, and a count field promising records the stream does not
// hold costs at most recGrowth times what was actually decoded (plus one
// minimal buffer) — never a buffer sized by the promise. A Stream takes the
// outgrown buffers into its pool, so only its first rank climbs the whole
// ladder; later ranks start from the largest buffer left behind.
const (
	minRecCap = 64
	recGrowth = 4
)

// growRecs returns recs with spare capacity: recGrowth times the old one,
// clamped to want — the most records the batch can come to hold — and to
// what the remaining payload budget could still pay for. The first capacity
// is want divided down to minRecCap, so growth lands on want exactly.
func (d *decoder) growRecs(recs []Record, want int) []Record {
	n := recGrowth * cap(recs)
	if n == 0 {
		for n = want; n > minRecCap; n = (n + recGrowth - 1) / recGrowth {
		}
	}
	n = min(n, want, len(recs)+int(d.budget/recordOverhead))
	n = max(n, len(recs)+1)
	out := make([]Record, len(recs), n)
	copy(out, recs)
	return out
}

// finish completes the payload decode: strict mode reports the deferred
// invariant violation the way Trace.Validate would; tolerate mode assembles
// the salvage stats (decode-failure entries plus invariant trims), sorted by
// rank. Call only after nextBatch returned io.EOF.
func (ps *payloadStream) finish() (*DecodeStats, error) {
	d := ps.d
	if !ps.tolerate {
		if ps.violation != nil {
			d.section = "validate"
			return nil, d.fail(Corrupt, ps.violation)
		}
		return &DecodeStats{}, nil
	}
	stats := &DecodeStats{Ranks: ps.entries}
	for _, tr := range ps.trims {
		verr := &DecodeError{
			Kind: Corrupt, Section: "validate",
			Rank: tr.rank, Record: tr.keep, Offset: d.off,
			Err: errors.New("record violates trace invariants"),
		}
		stats.Ranks = append(stats.Ranks, RankRecovery{
			Rank: tr.rank, Salvaged: tr.keep, Dropped: tr.total - tr.keep, Err: verr,
		})
	}
	sort.Slice(stats.Ranks, func(i, j int) bool { return stats.Ranks[i].Rank < stats.Ranks[j].Rank })
	return stats, nil
}

// invariantError reproduces the Trace.Validate message for the first
// violating record (decoding guarantees the structural fields, so only the
// timestamp invariants can fail here).
func invariantError(rank, seq int, rec *Record, lastRet int64) error {
	switch {
	case rec.Ret <= lastRet:
		return fmt.Errorf("trace: rank %d record %d return tick %d not increasing (prev %d)", rank, seq, rec.Ret, lastRet)
	case rec.Ret < rec.Tick:
		return fmt.Errorf("trace: rank %d record %d returns (%d) before entry (%d)", rank, seq, rec.Ret, rec.Tick)
	default:
		return fmt.Errorf("trace: rank %d record %d negative entry tick %d", rank, seq, rec.Tick)
	}
}
