package trace

import "os"

func removeFile(path string) error { return os.Remove(path) }

// renumber copies a rank's records with Rank and Seq rewritten as rank's
// stream: the single-rank sub-trace a rank file holds.
func renumber(rs []Record, rank int) []Record {
	out := make([]Record, len(rs))
	copy(out, rs)
	for i := range out {
		out[i].Rank = rank
		out[i].Seq = i
	}
	return out
}
