package trace

import (
	"errors"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"verifyio/internal/obs"
	"verifyio/internal/par"
)

// Source is a trace as the analysis consumes it: one record stream per rank
// (Recorder's unit, and WriteDir's). It has two implementations — *Trace,
// the records in memory, and *Dir, a trace directory decoded as it is read.
type Source interface {
	NumRanks() int
	// ReadRank passes the rank's records to fn as steps, in program order,
	// in one or more batches. The steps and their records are valid only
	// during the call: copy what must outlive it. The strings the steps
	// read, and the records' strings and contexts, may be kept. Distinct
	// ranks may be read concurrently.
	ReadRank(rank int, fn func(steps []Step)) error
}

// ReadRank passes the rank's records to fn as steps built from their Args
// (see Steps).
func (t *Trace) ReadRank(rank int, fn func(steps []Step)) error {
	Steps(t.Ranks[rank], fn)
	return nil
}

// Dir is a trace directory written by WriteDir, opened as a Source: each
// ReadRank opens that rank's file, decodes it one slot at a time, and runs
// the end-of-stream checks. Limits, DecodeErrors and tolerate-mode salvage
// are those of the materializing decoders — one record-decoding core
// (payloadStream) serves them all.
type Dir struct {
	dir    string
	opts   DecodeOptions
	window int64             // decoded-cost bound of one batch; 0 = unbounded
	names  map[int]string    // world rank -> file name (exactly the names WriteDir gives)
	meta   map[string]string // trace-level meta (verifyio.* keys stripped)

	// Per-rank slots, each written only by the reader of its rank.
	recov  [][]RankRecovery // tolerate: the rank's salvage entries so far
	counts []int            // records emitted

	// pre is the scanned rank's file (preRank), open past its metadata
	// section, until that rank's reader takes it over or Close drops it.
	pre     atomic.Pointer[streamSource]
	preRank int

	res    residency
	pool   bufPool
	tabs   tabPool
	unread atomic.Int32 // ranks ReadRank has yet to finish
	oc     obs.Ctx
	span   *obs.Span // "read-trace"
	closed bool
}

// OpenDir opens a trace directory for reading by up to readers ranks at
// once: the window (StreamOptions.WindowBytes) is divided among them, so the
// decoded records resident stay within it. The directory's shape (rank
// count, missing files) is validated here (see scan); a damaged rank file
// surfaces from ReadRank — strict mode fails, tolerate mode salvages per-rank
// prefixes and reports them in Stats.
func OpenDir(dir string, opts StreamOptions, readers int) (*Dir, error) {
	oc, span := opts.Obs.Start("read-trace", obs.String("dir", dir))
	span.SetCat("decode")
	d := &Dir{
		dir: dir, opts: opts.DecodeOptions, window: resolveWindow(opts.WindowBytes),
		names: make(map[int]string), meta: make(map[string]string),
		oc: oc, span: span,
	}
	if err := d.scan(); err != nil {
		d.dropPre()
		span.End()
		return nil, err
	}
	readers = max(1, min(readers, d.NumRanks()))
	if d.window > 0 {
		d.window = max(1, d.window/int64(readers))
	}
	d.unread.Store(int32(d.NumRanks()))
	return d, nil
}

// scan resolves the directory's shape: which ranks have a file comes from the
// file names, the world rank count and the trace-level metadata from the
// metadata section (a few bytes) of the lowest rank file that has a readable
// one. That file stays open where the scan stopped (Dir.pre), and its rank's
// reader carries on from there. No other file is opened here — a damaged
// header on a later rank surfaces from openRank, classified the same way — so
// every file is opened and inflated once and opening a directory costs the
// same at any rank count.
func (d *Dir) scan() error {
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		return err
	}
	ranks := make([]int, 0, len(entries))
	for _, e := range entries {
		// Only the exact name WriteDir gives a rank counts: a backup or a
		// partial copy ("rank-3.viot~", "rank-03.viot") must never stand in
		// for the rank's file.
		digits, hasPrefix := strings.CutPrefix(e.Name(), "rank-")
		digits, hasSuffix := strings.CutSuffix(digits, ".viot")
		if rank, ok := parseCount(digits); ok && hasPrefix && hasSuffix {
			d.names[rank] = e.Name()
			ranks = append(ranks, rank)
		}
	}
	if len(ranks) == 0 {
		return fmt.Errorf("trace: no rank files in %s", d.dir)
	}
	sort.Ints(ranks)
	maxRank := ranks[len(ranks)-1]
	nranks := -1
	failed := make(map[int]error)
	for _, rank := range ranks {
		src, err := d.prescan(d.names[rank])
		if err != nil {
			remapErr(err, rank)
			if !d.opts.Tolerate {
				return fmt.Errorf("trace: %s: %w", d.names[rank], err)
			}
			failed[rank] = err
			continue
		}
		d.pre.Store(src)
		d.preRank = rank
		meta := src.ps.meta
		// A malformed rank count is an absent one.
		if n, ok := parseCount(meta["verifyio.nranks"]); ok {
			nranks = n
		}
		if rank == 0 {
			for k, v := range meta {
				switch k {
				case "verifyio.rank", "verifyio.nranks":
				default:
					d.meta[k] = v
				}
			}
		}
		break
	}
	if nranks < 0 || (d.opts.Tolerate && maxRank+1 > nranks) {
		nranks = maxRank + 1
	}
	// The rank count came from file names and metadata — input, not ground
	// truth. Bound it like any other decoded count.
	if lim := d.opts.Limits.withDefaults(); nranks > lim.MaxRanks {
		if !d.opts.Tolerate {
			return &DecodeError{
				Kind: LimitExceeded, Section: "directory", Rank: -1, Record: -1,
				Err: fmt.Errorf("rank count %d exceeds limit %d", nranks, lim.MaxRanks),
			}
		}
		nranks = lim.MaxRanks
	}
	if !d.opts.Tolerate {
		if len(ranks) != nranks {
			return fmt.Errorf("trace: directory holds %d rank files, metadata says %d ranks", len(ranks), nranks)
		}
		for rank := 0; rank < nranks; rank++ {
			if _, ok := d.names[rank]; !ok {
				return fmt.Errorf("trace: missing rank file for rank %d", rank)
			}
		}
	}
	d.recov = make([][]RankRecovery, nranks)
	d.counts = make([]int, nranks)
	for rank := 0; rank < nranks; rank++ {
		if _, ok := d.names[rank]; !ok {
			d.lost(rank, &DecodeError{
				Kind: Truncated, Section: "directory", Rank: rank, Record: -1,
				Err: errors.New("missing rank file"),
			})
		} else if err := failed[rank]; err != nil {
			d.lost(rank, err)
		}
	}
	return nil
}

// parseCount parses a rank number or rank count as WriteDir writes one:
// canonical decimal, nothing around it.
func parseCount(s string) (int, bool) {
	n, err := strconv.Atoi(s)
	return n, err == nil && n >= 0 && strconv.Itoa(n) == s
}

// lost records (tolerate mode) that the rank's file salvages nothing.
func (d *Dir) lost(rank int, err error) {
	d.recov[rank] = []RankRecovery{{Rank: rank, Salvaged: 0, Dropped: -1, Err: err}}
}

// prescan opens one rank file and decodes its header and metadata section.
func (d *Dir) prescan(name string) (*streamSource, error) {
	f, err := os.Open(filepath.Join(d.dir, name))
	if err != nil {
		return nil, err
	}
	src, err := openMeta(f, d.opts.Limits)
	if err != nil {
		f.Close()
		return nil, err
	}
	src.f = f
	return src, nil
}

// dropPre closes the scanned rank's file if its reader never took it over.
func (d *Dir) dropPre() {
	if src := d.pre.Swap(nil); src != nil {
		src.close()
	}
}

// NumRanks returns the world rank count.
func (d *Dir) NumRanks() int { return len(d.counts) }

// slotBytes bounds the decoded cost of a slot, the batch ReadRank lends: at
// about 350 records of a sparse trace, a slot's records and steps stay in
// cache while the replay and the scan step over them, and the readers hold
// a few hundred KiB of records however large the window.
const slotBytes = 64 << 10

// ReadRank decodes the rank's file one slot at a time: a batch of at most
// the reader's share of the window or slotBytes of decoded cost, whichever
// is less (plus the record that reaches it). The slot is lent to fn as
// steps over the file's string table — their records, which have no Args,
// and the scratch their argument indices sit in are reused for the next
// slot — and the strings and contexts may be kept.
func (d *Dir) ReadRank(rank int, fn func(steps []Step)) error {
	return d.readRank(rank, true, func(b rawBatch) bool {
		fn(b.steps)
		return false
	})
}

// readRank is ReadRank with the buffer's fate left to fn: unless the batches
// are lent slots, a batch fn reports kept is the caller's, buffer and all,
// and stays counted as resident. The buffers left in the pool go with the
// last rank: the analysis' cross-rank phases, its memory peak, should not
// find them in the heap.
func (d *Dir) readRank(rank int, lend bool, fn func(b rawBatch) (kept bool)) error {
	defer func() {
		if d.unread.Add(-1) == 0 {
			d.pool.drop()
			d.tabs.drop()
		}
	}()
	rr, err := d.openRank(rank, lend)
	if rr == nil {
		return err
	}
	defer rr.close()
	for {
		b, err := rr.next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		d.res.add(b.cost)
		if !fn(b) {
			d.res.add(-b.cost)
			d.pool.put(b.recs)
		}
	}
}

// materialize reads every rank into memory on up to readers goroutines. With
// windowing disabled each rank arrives as one batch whose buffer the Trace
// keeps outright, so materializing pays no copy — only the peak memory the
// window exists to avoid. Strict mode returns the lowest failing rank's
// error, the one a rank-by-rank read meets first; the ranks above a failed
// one are not read.
func (d *Dir) materialize(readers int) (*Trace, *DecodeStats, error) {
	t := New(d.NumRanks())
	errs := make([]error, d.NumRanks())
	var failed atomic.Int64 // lowest failing rank so far
	failed.Store(int64(d.NumRanks()))
	par.Do(readers, d.NumRanks(), func(rank int) {
		if int64(rank) > failed.Load() {
			return
		}
		errs[rank] = d.readRank(rank, false, func(b rawBatch) bool {
			recs := b.recs
			// A buffer a larger rank grew out of would stay pinned at its
			// full size, so a rank that fills less than half of one takes a
			// copy and hands the buffer on.
			if len(t.Ranks[rank]) > 0 || cap(recs) > 2*len(recs) {
				t.Ranks[rank] = append(t.Ranks[rank], recs...)
				return false
			}
			t.Ranks[rank] = recs
			return true
		})
		for low := failed.Load(); errs[rank] != nil && int64(rank) < low; low = failed.Load() {
			failed.CompareAndSwap(low, int64(rank))
		}
	})
	if low := failed.Load(); low < int64(len(errs)) {
		return nil, nil, errs[low]
	}
	maps.Copy(t.Meta, d.meta)
	return t, d.Stats(), nil
}

// Stats returns the tolerate-mode salvage stats of the ranks read so far
// (and of those with nothing to read), in rank order; complete once every
// rank has been read.
func (d *Dir) Stats() *DecodeStats {
	stats := &DecodeStats{}
	for _, entries := range d.recov {
		stats.Ranks = append(stats.Ranks, entries...)
	}
	return stats
}

// Close ends the read-trace span and closes the scanned rank's file if that
// rank was never read. Call it once the readers are done; it is idempotent.
func (d *Dir) Close() {
	if d.closed {
		return
	}
	d.closed = true
	d.dropPre()
	d.span.End()
}

// PeakResidentBytes reports the high-water mark of unreleased batch cost:
// the most decoded record bytes the readers held at once.
func (d *Dir) PeakResidentBytes() int64 { return d.res.peak.Load() }

// rankReader is one open rank file of a Dir.
type rankReader struct {
	d       *Dir
	rank    int
	src     *streamSource
	span    *obs.Span // "read-rank"
	maxCost int64     // decoded-cost bound of one batch; 0 = unbounded
}

// openRank opens the rank's file and decodes its eager sections, lending its
// batches as slots of steps (see ReadRank) when lend is set. A nil reader
// with a nil error is tolerate mode with nothing to read: no file, or one
// that salvages nothing (recorded for Stats).
func (d *Dir) openRank(rank int, lend bool) (*rankReader, error) {
	if len(d.recov[rank]) > 0 {
		return nil, nil
	}
	name := d.names[rank]
	fail := func(err, strict error) (*rankReader, error) {
		if d.opts.Tolerate {
			d.lost(rank, err)
			return nil, nil
		}
		return nil, strict
	}
	// The scanned rank carries on from the scan: its file is open past the
	// metadata section.
	var src *streamSource
	if rank == d.preRank {
		src = d.pre.Swap(nil)
	}
	if src == nil {
		f, err := os.Open(filepath.Join(d.dir, name))
		if err != nil {
			// Gone since the scan: the directory is missing a piece.
			err = &DecodeError{Kind: Truncated, Section: "directory", Rank: rank, Record: -1, Err: err}
			return fail(err, err)
		}
		if src, err = openMeta(f, d.opts.Limits); err != nil {
			f.Close()
			remapErr(err, rank)
			return fail(err, fmt.Errorf("trace: %s: %w", name, err))
		}
		src.f = f
	}
	_, span := d.oc.StartLane("rank-"+strconv.Itoa(rank), "read-rank", obs.Int("rank", rank))
	maxCost := d.window
	if lend {
		// The table a finished rank file left, if any: its arrays fit a
		// table like this one.
		src.d.lent, src.d.tab = true, d.tabs.take()
		if maxCost == 0 || maxCost > slotBytes {
			maxCost = slotBytes
		}
	}
	if err := src.ps.start(d.opts.Tolerate); err != nil {
		span.End()
		src.close()
		remapErr(err, rank)
		return fail(err, fmt.Errorf("trace: %s: %w", name, err))
	}
	src.ps.rankOff = rank
	if d.window == 0 {
		// Whole ranks as batches, which a reader may keep (ReadDir does): the
		// next rank starts from the buffers this one grew out of.
		src.ps.outgrown = d.pool.put
	}
	return &rankReader{d: d, rank: rank, src: src, span: span, maxCost: maxCost}, nil
}

// next decodes the rank's next batch into a pooled buffer, which the caller
// gives back (Dir.pool) when done with the batch; a lent batch's steps are
// dead from here on. After the last batch it runs the file's end-of-stream
// checks and returns io.EOF.
func (rr *rankReader) next() (rawBatch, error) {
	d, ps := rr.d, rr.src.ps
	for {
		ps.d.recycle()
		buf := d.pool.take()
		b, err := ps.nextBatch(buf, rr.maxCost)
		if err == io.EOF {
			d.pool.put(buf) // the end of a payload uses no buffer
			if err := rr.finish(); err != nil {
				return rawBatch{}, err
			}
			return rawBatch{}, io.EOF
		}
		if err != nil {
			// Tolerate-mode record damage is salvaged inside nextBatch, so
			// an error here is strict mode failing — name the file, remap
			// the in-file rank to the world rank, and stop.
			remapErr(err, rr.rank)
			return rawBatch{}, fmt.Errorf("trace: %s: %w", d.names[rr.rank], err)
		}
		// Each file is a single-rank trace; batches for any other in-file
		// rank are decoded (for error fidelity) but not part of the world
		// trace.
		if b.rank != rr.rank || len(b.recs) == 0 {
			d.pool.put(b.recs)
			continue
		}
		d.counts[rr.rank] += len(b.recs)
		if ps.d.lent {
			b.steps = ps.d.slotSteps(b.recs)
		}
		return b, nil
	}
}

// finish runs the end-of-stream work of the rank file and records its
// salvage stats under the world rank.
func (rr *rankReader) finish() error {
	stats, err := rr.src.finish(rr.d.opts.Tolerate)
	rr.close()
	if err != nil {
		remapErr(err, rr.rank)
		return fmt.Errorf("trace: %s: %w", rr.d.names[rr.rank], err)
	}
	// The file's salvage stats are for its in-file ranks; report the world
	// rank the file name declares.
	for _, r := range stats.Ranks {
		remapErr(r.Err, rr.rank)
		r.Rank = rr.rank
		rr.d.recov[rr.rank] = append(rr.d.recov[rr.rank], r)
	}
	return nil
}

// close releases the file and hands its side table on; idempotent.
func (rr *rankReader) close() {
	if dec := rr.src.d; dec.tab != nil {
		dec.tab.release()
		rr.d.tabs.put(dec.tab)
		dec.tab = nil
	}
	rr.src.close()
	rr.span.End()
}

// remapErr rewrites a single-rank file's in-file rank 0 to the world rank.
func remapErr(err error, rank int) {
	if de, ok := AsDecodeError(err); ok && de.Rank == 0 {
		de.Rank = rank
	}
}

// residency tracks the decoded cost of the batches consumers hold.
type residency struct{ cur, peak atomic.Int64 }

func (r *residency) add(cost int64) {
	cur := r.cur.Add(cost)
	for peak := r.peak.Load(); cur > peak && !r.peak.CompareAndSwap(peak, cur); peak = r.peak.Load() {
	}
}

// bufPool recycles record buffers between batches.
type bufPool struct {
	mu   sync.Mutex
	bufs [][]Record
}

func (p *bufPool) put(buf []Record) {
	if cap(buf) > 0 {
		p.mu.Lock()
		p.bufs = append(p.bufs, buf[:0])
		p.mu.Unlock()
	}
}

func (p *bufPool) take() []Record {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.bufs); n > 0 {
		buf := p.bufs[n-1]
		p.bufs = p.bufs[:n-1]
		return buf
	}
	return nil
}

// drop releases the pooled buffers to the collector.
func (p *bufPool) drop() {
	p.mu.Lock()
	p.bufs = nil
	p.mu.Unlock()
}

// tabPool recycles lent side tables between rank files: a reader's next
// file fills the arrays its last one grew.
type tabPool struct {
	mu   sync.Mutex
	tabs []*argTable
}

func (p *tabPool) put(t *argTable) {
	p.mu.Lock()
	p.tabs = append(p.tabs, t)
	p.mu.Unlock()
}

// take returns a pooled table, or a new one.
func (p *tabPool) take() *argTable {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.tabs); n > 0 {
		t := p.tabs[n-1]
		p.tabs = p.tabs[:n-1]
		return t
	}
	return new(argTable)
}

// drop releases the pooled tables, and the strings they hold, to the
// collector.
func (p *tabPool) drop() {
	p.mu.Lock()
	p.tabs = nil
	p.mu.Unlock()
}
