package match_test

import (
	"testing"
	"time"

	"verifyio/internal/hbgraph"
	"verifyio/internal/match"
	"verifyio/internal/recorder"
	"verifyio/internal/sim/mpi"
	"verifyio/internal/sim/posixfs"
	"verifyio/internal/trace"
)

// TestPrefixCollectiveEdges pins MPI_Scan/MPI_Exscan as a chain: P-1 edges,
// each from a comm rank to the next, whose happens-before closure is the
// pairwise relation "every lower rank's call precedes every higher rank's" —
// checked through every hbgraph oracle, which is where the chain has to mean
// the clique.
func TestPrefixCollectiveEdges(t *testing.T) {
	for _, nranks := range []int{3, 16} {
		env := recorder.NewEnv(nranks, recorder.Options{FSMode: posixfs.ModePOSIX,
			MPIOptions: []mpi.Option{mpi.WithTimeout(2 * time.Second)}})
		err := env.Run(func(r *recorder.Rank) error {
			c := r.Proc().CommWorld()
			if _, err := r.Scan(c, int64(r.Rank()), mpi.OpSum); err != nil {
				return err
			}
			_, err := r.Exscan(c, int64(r.Rank()), mpi.OpSum)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		tr := env.Trace()
		res, err := match.MatchOpts(tr, match.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Problems) != 0 {
			t.Fatalf("P=%d: problems = %v", nranks, res.Problems)
		}
		if want := 2 * (nranks - 1); len(res.Edges) != want {
			t.Fatalf("P=%d: %d edges, want %d (a chain per call)", nranks, len(res.Edges), want)
		}
		for _, e := range res.Edges {
			if e.To.Rank != e.From.Rank+1 || e.To.Seq != e.From.Seq {
				t.Errorf("P=%d: prefix edge %v→%v is not a chain link", nranks, e.From, e.To)
			}
		}
		counts := make([]int, nranks)
		for rank, recs := range tr.Ranks {
			counts[rank] = len(recs)
		}
		g, err := hbgraph.BuildCounts(counts, res.Edges)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := g.SyncEdges(), 2*(nranks-1); got != want {
			t.Errorf("P=%d: SyncEdges = %d, want %d (a chain counts its links)", nranks, got, want)
		}
		vc, err := g.VectorClocksOpts(hbgraph.VCOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		seg, err := g.SegReachability(hbgraph.SegOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range []hbgraph.Oracle{vc, g.Reachability(), seg, hbgraph.NewOnTheFly(tr, res.Edges)} {
			for _, fn := range []string{"MPI_Scan", "MPI_Exscan"} {
				calls := make([]trace.Ref, nranks)
				for rank, recs := range tr.Ranks {
					for seq := range recs {
						if recs[seq].Func == fn {
							calls[rank] = trace.Ref{Rank: rank, Seq: seq}
						}
					}
				}
				for i, a := range calls {
					for j, b := range calls {
						if got := g.HB(o, a, b); got != (i < j) {
							t.Errorf("P=%d %s %s: HB(rank %d, rank %d) = %v, want %v", nranks, o.Name(), fn, i, j, got, i < j)
						}
					}
				}
			}
		}
	}
}
