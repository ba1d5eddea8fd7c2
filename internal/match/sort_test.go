package match

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"verifyio/internal/trace"
)

// refSortEdges is the comparator order sortEdges must reproduce.
func refSortEdges(edges []Edge) {
	slices.SortFunc(edges, func(a, b Edge) int {
		if c := refCompare(a.From, b.From); c != 0 {
			return c
		}
		return refCompare(a.To, b.To)
	})
}

// randomEdges draws n edges over nranks ranks and joins join nodes, with
// Seqs up to maxSeq and every fourth edge a duplicate of an earlier one.
func randomEdges(rng *rand.Rand, n, nranks, joins, maxSeq int) []Edge {
	end := func() trace.Ref {
		if joins > 0 && rng.Intn(4) == 0 {
			return trace.Ref{Rank: joinRank, Seq: int32(rng.Intn(joins))}
		}
		return trace.Ref{Rank: int32(rng.Intn(nranks)), Seq: int32(rng.Intn(maxSeq + 1))}
	}
	edges := make([]Edge, 0, n)
	for len(edges) < n {
		if len(edges) > 0 && rng.Intn(4) == 0 {
			edges = append(edges, edges[rng.Intn(len(edges))])
			continue
		}
		edges = append(edges, Edge{From: end(), To: end()})
	}
	return edges
}

// TestSortEdgesMatchesComparator holds the radix edge order to the
// comparator sort element for element: joins, 1–40 ranks, Seqs from a few to
// past 2^24 (every byte of a key in play), duplicates, empty and one-edge
// lists, and lists already sorted or reversed.
func TestSortEdgesMatchesComparator(t *testing.T) {
	check := func(name string, edges []Edge, nranks int) {
		t.Helper()
		want := slices.Clone(edges)
		refSortEdges(want)
		got := slices.Clone(edges)
		if err := sortEdges(got, nranks); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: radix order differs from the comparator's\n got %v\nwant %v", name, got, want)
		}
	}
	check("nil", nil, 0)
	check("empty", []Edge{}, 4)
	check("one edge", []Edge{{From: trace.Ref{Rank: 3, Seq: 9}, To: trace.Ref{Rank: joinRank, Seq: 0}}}, 4)
	check("one duplicate", []Edge{{From: trace.Ref{Rank: 0, Seq: 1}, To: trace.Ref{Rank: 1, Seq: 1}},
		{From: trace.Ref{Rank: 0, Seq: 1}, To: trace.Ref{Rank: 1, Seq: 1}}}, 2)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 400; i++ {
		nranks := 1 + rng.Intn(40)
		joins := rng.Intn(3) * rng.Intn(50)
		maxSeq := []int{3, 200, 1 << 16, 1<<24 + 7, 1 << 26}[rng.Intn(5)]
		edges := randomEdges(rng, rng.Intn(300), nranks, joins, maxSeq)
		// Ranks above the highest endpoint hold no ids.
		nranks += rng.Intn(3)
		check("random", edges, nranks)
		refSortEdges(edges)
		check("sorted", edges, nranks)
		slices.Reverse(edges)
		check("reversed", edges, nranks)
	}
}

// TestSortEdgesIDSpaceError: endpoint ids that need 33 bits — each Seq fits
// 31, but the joins' and the ranks' extents add up — or an endpoint that is
// neither a join nor a record position on one of the ranks, are a
// classified error, and the list is left as it was.
func TestSortEdgesIDSpaceError(t *testing.T) {
	cases := []struct {
		name  string
		edges []Edge
		want  string
	}{
		{"ranks sum past 2^32", []Edge{{From: trace.Ref{Rank: 0, Seq: math.MaxInt32}, To: trace.Ref{Rank: 1, Seq: math.MaxInt32}}}, "32-bit"},
		{"join Seq and ranks past 2^32", []Edge{{From: trace.Ref{Rank: joinRank, Seq: math.MaxInt32}, To: trace.Ref{Rank: 0, Seq: math.MaxInt32}}}, "32-bit"},
		{"negative Seq", []Edge{{From: trace.Ref{Rank: 0, Seq: -1}, To: trace.Ref{Rank: 1, Seq: 0}}}, "outside"},
		{"rank -2", []Edge{{From: trace.Ref{Rank: -2, Seq: 0}, To: trace.Ref{Rank: 1, Seq: 0}}}, "outside"},
		{"rank past the count", []Edge{{From: trace.Ref{Rank: 0, Seq: 0}, To: trace.Ref{Rank: 2, Seq: 0}}}, "outside"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			edges := append(slices.Clone(tc.edges), Edge{From: trace.Ref{Rank: 1, Seq: 0}, To: trace.Ref{Rank: 0, Seq: 0}})
			before := slices.Clone(edges)
			err := sortEdges(edges, 2)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one naming %q", err, tc.want)
			}
			if !slices.Equal(edges, before) {
				t.Errorf("a refused list was reordered: %v", edges)
			}
		})
	}
	// Just inside the space: 2^32 − 1 ids sort.
	edges := []Edge{{From: trace.Ref{Rank: 1, Seq: math.MaxInt32 - 1}, To: trace.Ref{Rank: 0, Seq: 0}},
		{From: trace.Ref{Rank: 0, Seq: math.MaxInt32}, To: trace.Ref{Rank: 1, Seq: 0}}}
	if err := sortEdges(edges, 2); err != nil || edges[0].From.Rank != 0 {
		t.Fatalf("2^32−1 ids: err = %v, edges %v", err, edges)
	}
}

// TestFinishRefusesOversizedIDSpace: the error reaches Matcher.Finish's
// caller.
func TestFinishRefusesOversizedIDSpace(t *testing.T) {
	m := NewMatcher(2)
	m.Feed(0, []trace.Record{{Rank: 0, Seq: math.MaxInt32, Func: "MPI_Send", Layer: trace.LayerMPI,
		Args: []string{"comm-world", "1", "0", "8"}}})
	m.Feed(1, []trace.Record{{Rank: 1, Seq: math.MaxInt32, Func: "MPI_Recv", Layer: trace.LayerMPI,
		Args: []string{"comm-world", "0", "0", "8", "0", "0"}}})
	res, err := m.Finish(Options{})
	if err == nil || !strings.Contains(err.Error(), "32-bit") {
		t.Fatalf("Finish = %v, %v; want the edge-key space error", res, err)
	}
}
