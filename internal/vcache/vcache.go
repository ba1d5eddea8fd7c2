// Package vcache memoizes per-chunk verification verdicts by content digest,
// so re-verifying an unchanged — or slightly grown — trace reuses sealed
// results instead of recomputing them.
//
// A chunk is a contiguous span of conflict groups (the unit of parallel work
// in internal/verify). Its verdict — properly-synchronized check count, race
// count, and the detailed raced pairs — is a pure function of
//
//	(chunk content, consistency model + verifier options, sync epoch),
//
// where the chunk content digest covers every contributing op's identity and
// byte extents, the model digest covers the MSC specification and the
// options that change what the verifier counts, and the sync epoch digest
// covers everything chunk-external a verdict can observe: per-rank trace
// lengths, the sync-point cohorts, and the happens-before relation (via the
// sync-skeleton digest). Keys collapse these three digests plus CodeVersion
// into one id, claircore-style: the digest is the address, and a hit is
// valid by construction.
//
// The store is an in-memory LRU with an optional on-disk backing directory.
// The disk layout is an append-only, CRC-framed verdict log plus one
// manifest file per logical trace (see manifest.go); both decode defensively
// — a torn or corrupted file truncates to its valid prefix or is ignored,
// degrading to recompute, never to a wrong verdict.
package vcache

import (
	"bufio"
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// CodeVersion salts every cache key with the generation of the verifier and
// of the digest encodings. Bump it whenever verification semantics, the
// canonical record/group/skeleton encodings, or the verdict layout change:
// the new build then misses cleanly against caches written by the old one
// instead of replaying stale verdicts.
//
// v2: default pruning searches a mixed read/write run as two subsequences;
// v1 verdicts under-counted races on such runs.
//
// v3: barrier-like collectives are join nodes in the sync skeleton, which
// changes its digest (hence every epoch), and star edges in the manifest.
//
// v4: a conflict pair lives in one group, its lower op's: a group's key
// (conflict.AppendGroupKey) names X and its later partners only, and a
// verdict's Checks counts each pair's evaluations once, not once per side.
const CodeVersion = "verifyio-vcache-v4"

// Digest is a SHA-256 content digest.
type Digest = [sha256.Size]byte

// Key addresses one chunk verdict.
type Key struct {
	// Chunk digests the span of conflict groups (ops, extents, file
	// identity) — see conflict.AppendGroupKey.
	Chunk Digest
	// Model digests the consistency model and the verifier options that
	// affect verdict content.
	Model Digest
	// Epoch digests the chunk-external verification context: rank lengths,
	// sync points, and the happens-before relation.
	Epoch Digest
}

// id collapses the key (and CodeVersion) into the store address.
func (k Key) id() Digest {
	h := sha256.New()
	h.Write([]byte(CodeVersion))
	h.Write(k.Chunk[:])
	h.Write(k.Model[:])
	h.Write(k.Epoch[:])
	var out Digest
	h.Sum(out[:0])
	return out
}

// RefPair is one raced conflict pair, by record identity.
type RefPair struct {
	XRank, XSeq int32
	YRank, YSeq int32
}

// Verdict is the sealed outcome of verifying one chunk.
type Verdict struct {
	// Checks is the number of properly-synchronized evaluations the chunk
	// cost (the Fig. 3 pruning metric).
	Checks int64
	// Races is the exact race count.
	Races int64
	// Pairs holds the first MaxRaceDetails raced pairs in discovery order.
	// The slice is shared between the store and its callers; treat it as
	// read-only.
	Pairs []RefPair
}

// maxLogPairs bounds a decoded pair count before allocation; a frame
// claiming more is corrupt by definition (MaxRaceDetails caps real ones far
// lower).
const maxLogPairs = 1 << 20

// DefaultMaxEntries bounds the in-memory LRU. Verdicts are small (a few
// hundred bytes with a full detail set), so the default is generous; a
// million entries covers traces far beyond the evaluation corpus.
const DefaultMaxEntries = 1 << 20

type entry struct {
	id Digest
	v  Verdict
}

// Store is a thread-safe verdict cache: an in-memory LRU, optionally backed
// by a directory that persists verdicts and incremental manifests across
// processes.
type Store struct {
	mu         sync.Mutex
	maxEntries int
	entries    map[Digest]*list.Element
	lru        *list.List // front = most recently used
	manifests  map[string]*Manifest
	dir        string
	log        *os.File // open verdict log, nil for memory-only stores
	logErr     error    // first append failure; persisting degrades, lookups continue

	// Cumulative effectiveness counters, fed by the verifier per resolved
	// chunk (a chunk resolves to exactly one of hit or miss, regardless of
	// how many raw lookups the resolution needed).
	hits, misses, dirty atomic.Int64
}

// NewMemory returns a memory-only store.
func NewMemory() *Store {
	return &Store{
		maxEntries: DefaultMaxEntries,
		entries:    make(map[Digest]*list.Element),
		lru:        list.New(),
		manifests:  make(map[string]*Manifest),
	}
}

// Open returns a store backed by dir, creating it if needed. Existing
// verdicts are replayed from the log; a torn or corrupted tail is truncated
// away so the next append continues from the last valid frame.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("vcache: %w", err)
	}
	s := NewMemory()
	s.dir = dir
	path := filepath.Join(dir, "verdicts.log")
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("vcache: %w", err)
	}
	valid, err := s.replayLog(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Truncate(valid); err != nil {
		f.Close()
		return nil, fmt.Errorf("vcache: truncating corrupt log tail: %w", err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, fmt.Errorf("vcache: %w", err)
	}
	s.log = f
	return s, nil
}

var logMagic = [5]byte{'V', 'I', 'O', 'C', 1}

// replayLog loads every valid frame and returns the byte offset of the end
// of the valid prefix. Decode errors are recovery signals, not failures:
// they mark where the usable log ends.
func (s *Store) replayLog(f *os.File) (validEnd int64, err error) {
	r := bufio.NewReader(f)
	var magic [5]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		// Empty (or shorter-than-header) file: write a fresh header.
		if _, err := f.WriteAt(logMagic[:], 0); err != nil {
			return 0, fmt.Errorf("vcache: %w", err)
		}
		return int64(len(logMagic)), nil
	}
	if magic != logMagic {
		// Foreign or old-version file: start over rather than guess.
		if _, err := f.WriteAt(logMagic[:], 0); err != nil {
			return 0, fmt.Errorf("vcache: %w", err)
		}
		return int64(len(logMagic)), nil
	}
	off := int64(len(logMagic))
	for {
		payload, n, ok := readFrame(r)
		if !ok {
			return off, nil
		}
		id, v, ok := decodeVerdict(payload)
		if !ok {
			return off, nil
		}
		s.putID(id, v)
		off += n
	}
}

// readFrame reads one [len][crc][payload] frame; ok=false on EOF, short
// read, oversized length, or checksum mismatch.
func readFrame(r io.Reader) (payload []byte, n int64, ok bool) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, 0, false
	}
	length := binary.LittleEndian.Uint32(hdr[0:4])
	sum := binary.LittleEndian.Uint32(hdr[4:8])
	if length > frameMaxLen {
		return nil, 0, false
	}
	payload = make([]byte, length)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, 0, false
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, 0, false
	}
	return payload, int64(8 + length), true
}

// frameMaxLen bounds any single frame (verdict or manifest) to keep a
// corrupted length field from provoking a giant allocation.
const frameMaxLen = 64 << 20

func appendFrame(buf, payload []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
	return append(buf, payload...)
}

// decodeVerdict parses a verdict-log payload: id, checks, races, pair count,
// pairs. Every bound is checked before allocation.
func decodeVerdict(p []byte) (id Digest, v Verdict, ok bool) {
	if len(p) < sha256.Size+8+8+4 {
		return id, v, false
	}
	copy(id[:], p[:sha256.Size])
	p = p[sha256.Size:]
	v.Checks = int64(binary.LittleEndian.Uint64(p[0:8]))
	v.Races = int64(binary.LittleEndian.Uint64(p[8:16]))
	npairs := binary.LittleEndian.Uint32(p[16:20])
	p = p[20:]
	if npairs > maxLogPairs || len(p) != int(npairs)*16 {
		return id, v, false
	}
	if v.Checks < 0 || v.Races < 0 || int64(npairs) > v.Races {
		return id, v, false
	}
	if npairs > 0 {
		v.Pairs = make([]RefPair, npairs)
		for i := range v.Pairs {
			v.Pairs[i] = RefPair{
				XRank: int32(binary.LittleEndian.Uint32(p[0:4])),
				XSeq:  int32(binary.LittleEndian.Uint32(p[4:8])),
				YRank: int32(binary.LittleEndian.Uint32(p[8:12])),
				YSeq:  int32(binary.LittleEndian.Uint32(p[12:16])),
			}
			p = p[16:]
		}
	}
	return id, v, true
}

func encodeVerdict(buf []byte, id Digest, v Verdict) []byte {
	buf = append(buf, id[:]...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(v.Checks))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(v.Races))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(v.Pairs)))
	for _, p := range v.Pairs {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(p.XRank))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(p.XSeq))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(p.YRank))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(p.YSeq))
	}
	return buf
}

// Get returns the verdict stored under k. The returned Pairs slice is
// shared; callers must not mutate it.
func (s *Store) Get(k Key) (Verdict, bool) {
	id := k.id()
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.entries[id]
	if !ok {
		return Verdict{}, false
	}
	s.lru.MoveToFront(el)
	return el.Value.(*entry).v, true
}

// Put stores v under k, persisting it when the store is disk-backed.
func (s *Store) Put(k Key, v Verdict) {
	id := k.id()
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.putID(id, v) {
		return // already present: no re-append, keeps warm re-puts cheap
	}
	if s.log != nil && s.logErr == nil {
		payload := encodeVerdict(nil, id, v)
		if _, err := s.log.Write(appendFrame(nil, payload)); err != nil {
			s.logErr = err
		}
	}
}

// putID inserts under the lock; reports whether the entry is new.
func (s *Store) putID(id Digest, v Verdict) bool {
	if el, ok := s.entries[id]; ok {
		el.Value.(*entry).v = v
		s.lru.MoveToFront(el)
		return false
	}
	s.entries[id] = s.lru.PushFront(&entry{id: id, v: v})
	for s.lru.Len() > s.maxEntries {
		back := s.lru.Back()
		delete(s.entries, back.Value.(*entry).id)
		s.lru.Remove(back)
	}
	return true
}

// Len returns the number of cached verdicts.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lru.Len()
}

// Keys returns every cached verdict id, unordered. It exists for the digest
// stability tests: the id set is a scheduling-independent fingerprint of
// everything a verification pass sealed.
func (s *Store) Keys() []Digest {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Digest, 0, len(s.entries))
	for id := range s.entries {
		out = append(out, id)
	}
	return out
}

// CountHit / CountMiss / CountDirty feed the cumulative effectiveness
// counters; the verifier calls exactly one of CountHit/CountMiss per chunk.
func (s *Store) CountHit()   { s.hits.Add(1) }
func (s *Store) CountMiss()  { s.misses.Add(1) }
func (s *Store) CountDirty() { s.dirty.Add(1) }

// Stats returns the cumulative chunk-level hit/miss/dirty counts.
func (s *Store) Stats() (hits, misses, dirty int64) {
	return s.hits.Load(), s.misses.Load(), s.dirty.Load()
}

// Manifest returns the incremental manifest stored under the trace id, or
// nil. Disk-backed stores load lazily.
func (s *Store) Manifest(id string) *Manifest {
	s.mu.Lock()
	defer s.mu.Unlock()
	if m, ok := s.manifests[id]; ok {
		return m
	}
	if s.dir == "" {
		return nil
	}
	m := loadManifest(s.manifestPath(id))
	if m != nil {
		s.manifests[id] = m
	}
	return m
}

// PutManifest stores the manifest for the trace id, replacing any previous
// one. Disk-backed stores write atomically (temp file + rename), so a crash
// leaves either the old or the new manifest, never a torn one.
func (s *Store) PutManifest(id string, m *Manifest) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.manifests[id]; ok && old.equal(m) {
		return
	}
	s.manifests[id] = m
	if s.dir == "" {
		return
	}
	path := s.manifestPath(id)
	payload := m.encode(nil)
	buf := append([]byte{}, manifestMagic[:]...)
	buf = appendFrame(buf, payload)
	tmp, err := os.CreateTemp(s.dir, "manifest-*.tmp")
	if err != nil {
		return
	}
	_, werr := tmp.Write(buf)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
	}
}

// manifestPath addresses a manifest file by the hash of its trace id (ids
// are arbitrary strings — often paths — and must not leak into file names).
func (s *Store) manifestPath(id string) string {
	sum := sha256.Sum256([]byte("manifest\x00" + id))
	return filepath.Join(s.dir, fmt.Sprintf("manifest-%x.bin", sum[:8]))
}

// Err reports the first persistence failure, if any. Lookup correctness is
// unaffected; the store just stops growing its on-disk log.
func (s *Store) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.logErr
}

// Close releases the on-disk log. The in-memory contents stay usable.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log == nil {
		return nil
	}
	err := s.log.Close()
	s.log = nil
	return err
}
