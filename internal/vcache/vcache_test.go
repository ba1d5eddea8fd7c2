package vcache

import (
	"crypto/sha256"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

func testKey(b byte) Key {
	var k Key
	k.Chunk = sha256.Sum256([]byte{b, 1})
	k.Model = sha256.Sum256([]byte{b, 2})
	k.Epoch = sha256.Sum256([]byte{b, 3})
	return k
}

func testVerdict(n int) Verdict {
	v := Verdict{Checks: int64(100 + n), Races: int64(n)}
	for i := 0; i < n; i++ {
		v.Pairs = append(v.Pairs, RefPair{XRank: 0, XSeq: int32(i), YRank: 1, YSeq: int32(i + 1)})
	}
	return v
}

func verdictEqual(a, b Verdict) bool {
	if a.Checks != b.Checks || a.Races != b.Races || len(a.Pairs) != len(b.Pairs) {
		return false
	}
	for i := range a.Pairs {
		if a.Pairs[i] != b.Pairs[i] {
			return false
		}
	}
	return true
}

func TestMemoryStoreRoundTrip(t *testing.T) {
	s := NewMemory()
	k := testKey(7)
	if _, ok := s.Get(k); ok {
		t.Fatal("empty store reported a hit")
	}
	want := testVerdict(3)
	s.Put(k, want)
	got, ok := s.Get(k)
	if !ok || !verdictEqual(got, want) {
		t.Fatalf("round trip: got %+v ok=%v, want %+v", got, ok, want)
	}
	// Distinct key components must address distinct entries.
	k2 := k
	k2.Epoch = sha256.Sum256([]byte("other"))
	if _, ok := s.Get(k2); ok {
		t.Fatal("epoch-variant key aliased the original")
	}
}

func TestLRUEviction(t *testing.T) {
	s := NewMemory()
	s.maxEntries = 4
	for i := 0; i < 8; i++ {
		s.Put(testKey(byte(i)), testVerdict(0))
	}
	if s.Len() != 4 {
		t.Fatalf("Len = %d, want 4", s.Len())
	}
	if _, ok := s.Get(testKey(0)); ok {
		t.Fatal("oldest entry survived eviction")
	}
	if _, ok := s.Get(testKey(7)); !ok {
		t.Fatal("newest entry evicted")
	}
}

func TestDiskRoundTripAcrossOpens(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := testVerdict(2)
	s.Put(testKey(1), want)
	s.Put(testKey(2), testVerdict(0))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 2 {
		t.Fatalf("reopened Len = %d, want 2", s2.Len())
	}
	got, ok := s2.Get(testKey(1))
	if !ok || !verdictEqual(got, want) {
		t.Fatalf("reopened verdict: got %+v ok=%v, want %+v", got, ok, want)
	}
}

// TestCorruptLogTailTruncated: a torn append must not lose the valid prefix,
// and the recovered store must keep working.
func TestCorruptLogTailTruncated(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Put(testKey(1), testVerdict(1))
	s.Put(testKey(2), testVerdict(2))
	s.Close()

	path := filepath.Join(dir, "verdicts.log")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the last frame: drop its final 7 bytes and append garbage.
	torn := append(append([]byte{}, data[:len(data)-7]...), 0xde, 0xad)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 1 {
		t.Fatalf("recovered Len = %d, want 1 (valid prefix only)", s2.Len())
	}
	if _, ok := s2.Get(testKey(1)); !ok {
		t.Fatal("valid prefix entry lost in recovery")
	}
	// The torn tail must be gone so appends continue from a clean frame.
	s2.Put(testKey(3), testVerdict(0))
	s2.Close()
	s3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if s3.Len() != 2 {
		t.Fatalf("post-recovery Len = %d, want 2", s3.Len())
	}
}

// TestCorruptFrameFlippedBit: CRC must reject an in-place flip, degrading to
// a shorter valid prefix, never to a wrong verdict.
func TestCorruptFrameFlippedBit(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Put(testKey(1), testVerdict(4))
	s.Close()

	path := filepath.Join(dir, "verdicts.log")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, ok := s2.Get(testKey(1)); ok {
		t.Fatal("bit-flipped frame served a verdict")
	}
}

func TestManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := &Manifest{
		CodeVersion: CodeVersion,
		Epoch:       sha256.Sum256([]byte("epoch")),
		Skeleton:    sha256.Sum256([]byte("skel")),
		Ranks: []RankManifest{
			{Records: 130, Unlinks: 1, Blocks: []Digest{sha256.Sum256([]byte("b0")), sha256.Sum256([]byte("b1")), sha256.Sum256([]byte("b2"))}},
			{Records: 64, Unlinks: 0, Blocks: []Digest{sha256.Sum256([]byte("c0"))}},
		},
		Edges: []Edge{{0, 3, 1, 4}, {1, 10, 0, 12}},
	}
	s.PutManifest("trace-a", m)
	s.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got := s2.Manifest("trace-a")
	if got == nil {
		t.Fatal("manifest not reloaded from disk")
	}
	if !got.equal(m) {
		t.Fatalf("manifest round trip mismatch:\n got %+v\nwant %+v", got, m)
	}
	if s2.Manifest("trace-b") != nil {
		t.Fatal("unknown id returned a manifest")
	}
}

func TestCorruptManifestIgnored(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := &Manifest{CodeVersion: CodeVersion, Ranks: []RankManifest{{Records: 1}}}
	s.PutManifest("trace-a", m)
	path := s.manifestPath("trace-a")
	s.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Manifest("trace-a") != nil {
		t.Fatal("corrupt manifest was served")
	}
}

// TestCutsPrefix: an appended rank keeps its full-block prefix; the edge
// closure then pulls the cut below any straddling or changed edge.
func TestCutsPrefix(t *testing.T) {
	blocks := func(names ...string) []Digest {
		out := make([]Digest, len(names))
		for i, n := range names {
			out[i] = sha256.Sum256([]byte(n))
		}
		return out
	}
	old := &Manifest{
		CodeVersion: CodeVersion,
		Ranks: []RankManifest{
			{Records: 128, Blocks: blocks("a0", "a1")},
			{Records: 100, Blocks: blocks("b0", "b1")},
		},
		Edges: []Edge{{0, 10, 1, 11}},
	}
	// Rank 0 appended (chain extends, prefix intact); rank 1 unchanged.
	cur := []RankManifest{
		{Records: 200, Blocks: blocks("a0", "a1", "a2x")},
		{Records: 100, Blocks: blocks("b0", "b1")},
	}
	cuts := old.Cuts(cur, []Edge{{0, 10, 1, 11}})
	if cuts == nil {
		t.Fatal("Cuts returned nil for matching shape")
	}
	if cuts[0] != 128 || cuts[1] != 100 {
		t.Fatalf("cuts = %v, want [128 100]", cuts)
	}

	// A new edge out of the appended region into rank 1's stable region
	// must expel its rank-1 endpoint.
	cuts = old.Cuts(cur, []Edge{{0, 10, 1, 11}, {0, 150, 1, 50}})
	if cuts[1] != 50 {
		t.Fatalf("straddling edge: cuts = %v, want rank 1 cut 50", cuts)
	}

	// A changed rank count certifies nothing.
	if old.Cuts(cur[:1], nil) != nil {
		t.Fatal("rank-count mismatch should return nil")
	}
}

// TestEdgeDiffLinearMerge holds the merge against the multiset difference it
// replaced on sorted lists (duplicates included), and pins what it does with
// lists that are not sorted: report at least the true difference.
func TestEdgeDiffLinearMerge(t *testing.T) {
	byCount := func(a, b []Edge) map[Edge]int {
		count := map[Edge]int{}
		for _, e := range a {
			count[e]++
		}
		for _, e := range b {
			count[e]--
		}
		for e, c := range count {
			if c == 0 {
				delete(count, e)
			} else if c < 0 {
				count[e] = -c
			}
		}
		return count
	}
	tally := func(es []Edge) map[Edge]int {
		return byCount(es, nil)
	}
	rng := rand.New(rand.NewSource(3))
	draw := func() []Edge {
		es := make([]Edge, rng.Intn(40))
		for i := range es {
			es[i] = Edge{int32(rng.Intn(3)), int32(rng.Intn(4)), int32(rng.Intn(3)), int32(rng.Intn(4))}
		}
		return es
	}
	for trial := 0; trial < 200; trial++ {
		a, b := draw(), draw()
		want := byCount(a, b)
		for e, c := range tally(edgeDiff(a, b)) { // unsorted: a superset
			if c < want[e] {
				t.Fatalf("unsorted lists: %v reported %d times, differs %d times", e, c, want[e])
			}
			delete(want, e)
		}
		if len(want) != 0 {
			t.Fatalf("unsorted lists: differing edges %v not reported", want)
		}
		slices.SortFunc(a, compareEdges)
		slices.SortFunc(b, compareEdges)
		if got, want := tally(edgeDiff(a, b)), byCount(a, b); !maps.Equal(got, want) {
			t.Fatalf("sorted lists: diff %v, want %v", got, want)
		}
	}
}

// TestCutsIdenticalRank: byte-identical ranks (partial last block included)
// get a full-length cut.
func TestCutsIdenticalRank(t *testing.T) {
	b := []Digest{sha256.Sum256([]byte("x0")), sha256.Sum256([]byte("x1"))}
	old := &Manifest{
		CodeVersion: CodeVersion,
		Ranks:       []RankManifest{{Records: 100, Blocks: b}},
	}
	cuts := old.Cuts([]RankManifest{{Records: 100, Blocks: b}}, nil)
	if cuts == nil || cuts[0] != 100 {
		t.Fatalf("cuts = %v, want [100]", cuts)
	}
}

func TestUnlinkGuard(t *testing.T) {
	m := &Manifest{
		CodeVersion: CodeVersion,
		Ranks:       []RankManifest{{Records: 100, Unlinks: 2}, {Records: 100, Unlinks: 0}},
	}
	cuts := []int{64, 64}
	// All unlinks below the cuts in both runs: safe.
	if !m.UnlinkSafe(cuts, []int{2, 0}, []int{2, 0}) {
		t.Fatal("fully below-cut unlinks should be safe")
	}
	// New run gained an unlink above the cut: unsafe.
	if m.UnlinkSafe(cuts, []int{2, 0}, []int{3, 0}) {
		t.Fatal("above-cut unlink in the new run must disable promotion")
	}
	// Old run had an unlink above the cut: unsafe.
	if m.UnlinkSafe(cuts, []int{1, 0}, []int{1, 0}) {
		t.Fatal("above-cut unlink in the old run must disable promotion")
	}
}

func TestKeysScheduleIndependent(t *testing.T) {
	s := NewMemory()
	ks := []Key{testKey(1), testKey(2), testKey(3)}
	for _, k := range ks {
		s.Put(k, testVerdict(0))
	}
	ids := s.Keys()
	if len(ids) != len(ks) {
		t.Fatalf("Keys = %d entries, want %d", len(ids), len(ks))
	}
	seen := map[Digest]bool{}
	for _, id := range ids {
		seen[id] = true
	}
	for _, k := range ks {
		id := k.id()
		if !seen[id] {
			t.Fatalf("key %x missing from Keys()", id[:8])
		}
	}
}
