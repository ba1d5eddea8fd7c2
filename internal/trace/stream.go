package trace

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// Streaming, bounded-memory trace ingestion.
//
// The materializing decoders (Decode, ReadDir) hold every record of every
// rank resident, so peak memory is O(trace size). Stream is the pull-based
// alternative: it yields per-rank record batches in rank-major order, each
// bounded by a byte window, with an explicit Release that returns the batch
// buffer to a pool. A consumer that releases each batch after processing it
// keeps peak decoded memory bounded by the window (plus the current file's
// string table), not by the trace. The analysis and ReadDir read a directory
// rank by rank through Dir (source.go) instead, several ranks at once; Stream
// is the one-goroutine view of the same readers, kept for decode-only
// consumers that drain a directory and read its PeakResidentBytes.
//
// Every decoder shares one record-decoding core (payloadStream), so they are
// behaviorally identical: the same Limits bound every allocation, the same
// DecodeErrors classify every failure, and tolerate-mode salvage keeps
// exactly the same per-rank prefixes with the same DecodeStats.

// DefaultWindowBytes is the decoded-cost budget of one batch when
// StreamOptions.WindowBytes is zero: enough to amortize per-batch overhead,
// small enough that a multi-GB trace never has more than a few MB of records
// resident.
const DefaultWindowBytes = 4 << 20

// WindowUnbounded disables batch windowing: each rank arrives as a single
// batch (ReadDir keeps that batch's buffer as the rank's record slice instead
// of copying the rank).
const WindowUnbounded = -1

// StreamOptions controls streaming ingestion. DecodeOptions (Limits,
// Tolerate, Obs) mean exactly what they mean for the materializing decoders.
type StreamOptions struct {
	DecodeOptions
	// WindowBytes bounds the decoded cost of one batch, in the same units
	// the payload budget (Limits.MaxPayload) is charged: string bytes plus
	// per-entity bookkeeping overhead. Zero selects DefaultWindowBytes;
	// WindowUnbounded (or any negative value) disables windowing.
	// Dir.ReadRank cuts its slots at 64 KiB when the window (a reader's
	// share of it) is larger, so there the default no longer binds.
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
// The pool contract for consumers: copy out anything you need before
// releasing — the buffer is recycled for a later batch, so retained Recs are
// silently overwritten. Release is idempotent: the first call severs the
// batch from its stream, so a second call is a no-op rather than a
// double-free (the buffer can never be pushed into the pool twice, and the
// resident accounting is credited exactly once).
func (b *Batch) Release() {
	if b == nil || b.s == nil {
		return
	}
	b.s.dir.res.add(-b.cost)
	b.s.dir.pool.put(b.Recs)
	b.s = nil
	b.Recs = nil
}

// Stream decodes a trace directory incrementally, yielding per-rank record
// batches in rank-major order (all of rank 0's batches, then rank 1's, ...):
// the directory's rank readers, one at a time in rank order. It is not safe
// for concurrent use.
type Stream struct {
	dir  *Dir
	next int         // next rank to open
	cur  *rankReader // open rank; nil between ranks

	done   bool
	err    error // sticky failure
	closed bool
}

// streamSource is one open payload being decoded.
type streamSource struct {
	f  *os.File
	d  *decoder
	ps *payloadStream
}

// finish runs the payload's end-of-stream work, once nextBatch has returned
// io.EOF: the salvage stats (tolerate mode), or the deferred invariant and
// trailer checks (strict mode).
func (src *streamSource) finish(tolerate bool) (*DecodeStats, error) {
	stats, err := src.ps.finish()
	if err == nil && !tolerate {
		err = src.d.checkTrailer()
	}
	return stats, err
}

// close releases the file and the reader state; idempotent.
func (src *streamSource) close() {
	src.d.release()
	if src.f != nil {
		src.f.Close()
		src.f = nil
	}
}

// OpenStream starts streaming a trace directory written by WriteDir: one
// batch run per world rank, ranks ascending — OpenDir read by one reader.
func OpenStream(dir string, opts StreamOptions) (*Stream, error) {
	d, err := OpenDir(dir, opts, 1)
	if err != nil {
		return nil, err
	}
	return &Stream{dir: d}, nil
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

// openSource opens one encoded stream: header checks, decompression, and the
// eager sections (metadata, string table, rank count).
func openSource(r io.Reader, opts DecodeOptions) (*streamSource, error) {
	src, err := openMeta(r, opts.Limits)
	if err != nil {
		return nil, err
	}
	if err := src.ps.start(opts.Tolerate); err != nil {
		src.close()
		return nil, err
	}
	return src, nil
}

// openMeta opens one encoded stream up to the end of its metadata section,
// the first of the eager sections; ps.start decodes the others.
func openMeta(r io.Reader, lim Limits) (*streamSource, error) {
	d, err := openDecoder(r, lim, false)
	if err != nil {
		return nil, err
	}
	ps, err := newPayloadStream(d)
	if err != nil {
		d.release()
		return nil, err
	}
	return &streamSource{d: d, ps: ps}, nil
}

// Next returns the next batch, or io.EOF when the trace is exhausted. Errors
// are classified like the materializing decoders'; after an error the stream
// is dead.
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
	b, err := s.nextDir()
	if err != nil {
		if err != io.EOF {
			s.err = err
		} else {
			// Closing the directory publishes the end-of-stream telemetry.
			s.done = true
			s.dir.Close()
		}
		return nil, err
	}
	s.dir.res.add(b.cost)
	return &Batch{Rank: b.rank, Start: b.start, Recs: b.recs, cost: b.cost, s: s}, nil
}

func (s *Stream) nextDir() (rawBatch, error) {
	for {
		if s.cur == nil {
			if s.next >= s.dir.NumRanks() {
				return rawBatch{}, io.EOF
			}
			rr, err := s.dir.openRank(s.next, false)
			s.next++
			if err != nil {
				return rawBatch{}, err
			}
			s.cur = rr // nil: tolerate mode has nothing to read for the rank
			continue
		}
		b, err := s.cur.next()
		if err == io.EOF {
			s.cur = nil
			continue
		}
		return b, err
	}
}

// PeakResidentBytes reports the high-water mark of unreleased batch cost —
// the quantity Dir.PeakResidentBytes reports.
func (s *Stream) PeakResidentBytes() int64 { return s.dir.PeakResidentBytes() }

// Close releases the stream's resources. It is idempotent; a stream that
// already returned io.EOF needs no Close but tolerates one.
func (s *Stream) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	if s.cur != nil {
		s.cur.close()
		s.cur = nil
	}
	s.dir.Close()
	return nil
}

// ---------------------------------------------------------------------------
// payloadStream: the shared incremental record-decoding core.

// rawBatch is one decoded run of records before any world-rank renumbering,
// and in lent mode their steps.
type rawBatch struct {
	rank  int
	start int
	recs  []Record
	steps []Step
	cost  int64
}

type pendingTrim struct{ rank, keep, total int }

// payloadStream decodes the payload of one encoded trace incrementally. It
// is the single implementation behind both the materializing decodeTrace and
// the streaming API: newPayloadStream decodes the metadata section and start
// the other eager sections (string table, rank count); nextBatch then decodes
// records on demand; finish runs the deferred validation and assembles the
// salvage stats.
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

	// Incremental trace-invariant tracking (per rank, Ret strictly
	// increasing and Tick within [0, Ret]): records at or past the first
	// violating index are decoded (offsets, budget, and later errors must
	// match the materializing path) but never emitted.
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

// newPayloadStream decodes the metadata section. Damage here, and in start,
// fails in both modes: nothing downstream is interpretable without the eager
// sections.
func newPayloadStream(d *decoder) (*payloadStream, error) {
	meta, err := d.decodeMetaSection()
	if err != nil {
		return nil, err
	}
	return &payloadStream{d: d, meta: meta}, nil
}

// start decodes the eager sections after the metadata: the string table and
// the rank count.
func (ps *payloadStream) start(tolerate bool) error {
	d := ps.d
	ps.tolerate = tolerate
	if tolerate {
		ps.damaged = make(map[int]bool)
	}
	d.section = "string-table"
	sectionStart := d.off
	nstrs, err := d.uvarint()
	if err != nil {
		return err
	}
	if nstrs > uint64(d.lim.MaxStrings) {
		return d.fail(LimitExceeded, fmt.Errorf("string table size %d exceeds limit %d", nstrs, d.lim.MaxStrings))
	}
	if d.lent && nstrs > math.MaxUint32 {
		// A step reads its arguments by 32-bit index.
		return d.fail(LimitExceeded, fmt.Errorf("string table size %d exceeds a lent step's 32-bit index", nstrs))
	}
	d.span("string-count", -1, -1, sectionStart)
	if ps.strs, err = d.strTable(int(nstrs)); err != nil {
		return err
	}
	d.span("string-table", -1, -1, sectionStart)

	d.section = "records"
	sectionStart = d.off
	nranks, err := d.uvarint()
	if err != nil {
		return err
	}
	if nranks > uint64(d.lim.MaxRanks) {
		return d.fail(LimitExceeded, fmt.Errorf("rank count %d exceeds limit %d", nranks, d.lim.MaxRanks))
	}
	if err := d.charge(int64(nranks) * rankOverhead); err != nil {
		return err
	}
	d.span("nranks", -1, -1, sectionStart)
	ps.nranks = int(nranks)
	return nil
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
					if d.lent {
						d.keep(n)
					}
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
// minimal buffer) — never a buffer sized by the promise. A Stream, or a Dir
// read in whole ranks, takes the outgrown buffers into its pool, so only the
// first rank of each reader climbs the whole ladder; later ranks start from
// the largest buffer left behind.
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
