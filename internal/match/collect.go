package match

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"verifyio/internal/trace"
)

// matchCollectives pairs the k-th collective call on each communicator
// across all members and emits synchronization edges.
func (m *matcher) matchCollectives() {
	gids := make([]string, 0, len(m.colls))
	for gid := range m.colls {
		gids = append(gids, gid)
	}
	slices.Sort(gids)

	// entries holds one slot's calls by member position; reused across slots.
	var entries []*collEntry
	for _, gid := range gids {
		byRank := m.colls[gid]
		members, ok := m.members[gid]
		if !ok {
			// Walk the participating ranks in order: map iteration order
			// must not leak into the refs.
			var refs []trace.Ref
			ranks := make([]int, 0, len(byRank))
			for r := range byRank {
				ranks = append(ranks, r)
			}
			slices.Sort(ranks)
			for _, r := range ranks {
				if entries := byRank[r]; len(entries) > 0 {
					refs = append(refs, entries[0].init)
				}
			}
			m.problem(MissingCollective,
				fmt.Sprintf("collective calls on unknown communicator %s", gid), refs...)
			continue
		}
		maxLen := 0
		for _, rank := range members {
			if n := len(byRank[rank]); n > maxLen {
				maxLen = n
			}
		}
		// Ranks that participate in fewer slots than their peers are
		// reported once each.
		for _, rank := range members {
			if n := len(byRank[rank]); n < maxLen {
				m.problem(MissingCollective,
					fmt.Sprintf("rank %d made %d collective calls on %s; peers made %d",
						rank, n, gid, maxLen))
			}
		}
		full := maxLen
		for _, rank := range members {
			if n := len(byRank[rank]); n < full {
				full = n
			}
		}
		for slot := 0; slot < full; slot++ {
			entries = entries[:0]
			sameName, sameRoot := true, true
			for _, rank := range members {
				e := &byRank[rank][slot]
				if len(entries) > 0 {
					sameName = sameName && e.fn == entries[0].fn
					sameRoot = sameRoot && e.rootArg == entries[0].rootArg
				}
				entries = append(entries, e)
			}
			name, root := entries[0].fn, entries[0].rootArg
			if !sameName || !sameRoot {
				detail := fmt.Sprintf("collective slot %d on %s mixes calls:", slot, gid)
				for i, rank := range members {
					detail += fmt.Sprintf(" rank%d=%s", rank, entries[i].fn)
				}
				m.problem(MismatchedCollective, detail, initRefs(entries)...)
				continue
			}
			if (scatterLike[name] || gatherLike[name]) && (root < 0 || root >= len(members)) {
				// Every member agrees on a root that names no member: the
				// slot matches, but its data flow — hence its sync order —
				// is unknown, and silence would leave the report saying
				// "verified" on an incomplete happens-before order.
				m.problem(MalformedRecord,
					fmt.Sprintf("%s: root %d is not a rank of %s (size %d)", name, root, gid, len(members)),
					initRefs(entries)...)
				continue
			}
			m.res.Collectives++
			m.collectiveEdges(name, root, entries)
		}
	}
}

// initRefs lists the initiation records of one slot, in member order.
func initRefs(entries []*collEntry) []trace.Ref {
	refs := make([]trace.Ref, len(entries))
	for i, e := range entries {
		refs[i] = e.init
	}
	return refs
}

// collectiveEdges emits the synchronization edges for one matched slot.
// entries holds the members' calls in communicator-rank order; root is a
// valid index into it for the rooted classes.
func (m *matcher) collectiveEdges(name string, root int, entries []*collEntry) {
	switch {
	case barrierLike[name]:
		// Everything before the collective on any member happens-before
		// everything after it on every other member. Stored as one join
		// node J per slot — pred(call_i) → J → completion_j, at most two
		// edges per member — instead of the pred(call_i) → completion_j
		// clique it stands for (Pairwise expands it). Neither encoding
		// creates call_i ↔ call_j cycles, and the pairs the join adds,
		// pred(call_i) → completion_i, are program order anyway.
		//
		// The endpoints are exactly the clique's: a member whose call is
		// its first record has no predecessor to order, and a completion is
		// a target only when some other rank has one.
		srcRank, spread := int32(-1), false // first source's rank; sources on more than one rank
		for _, e := range entries {
			if e.init.Seq == 0 {
				continue
			}
			if srcRank < 0 {
				srcRank = e.init.Rank
			}
			spread = spread || e.init.Rank != srcRank
		}
		if srcRank < 0 {
			return
		}
		start := len(m.res.Edges)
		join := trace.Ref{Rank: joinRank, Seq: m.joins}
		targets := 0
		for _, e := range entries {
			if e.init.Seq > 0 {
				pred := trace.Ref{Rank: e.init.Rank, Seq: e.init.Seq - 1}
				m.res.Edges = append(m.res.Edges, Edge{From: pred, To: join})
			}
			if spread || e.completion.Rank != srcRank {
				m.res.Edges = append(m.res.Edges, Edge{From: join, To: e.completion})
				targets++
			}
		}
		if targets == 0 {
			m.res.Edges = m.res.Edges[:start] // one-rank communicator: nothing to order
			return
		}
		m.joins++
	case scatterLike[name]:
		er := entries[root]
		for j, e := range entries {
			if j != root {
				m.res.Edges = append(m.res.Edges, Edge{From: er.init, To: e.completion})
			}
		}
	case gatherLike[name]:
		er := entries[root]
		for j, e := range entries {
			if j != root {
				m.res.Edges = append(m.res.Edges, Edge{From: e.init, To: er.completion})
			}
		}
	case prefixLike[name]:
		// Prefix reductions: rank i's completion depends on every lower
		// comm rank's contribution (and on nothing above it). Both calls are
		// blocking, so init is completion and a chain through consecutive
		// comm ranks has the pairwise clique's transitive closure with P-1
		// edges instead of P(P-1)/2.
		for i := 1; i < len(entries); i++ {
			m.res.Edges = append(m.res.Edges, Edge{From: entries[i-1].init, To: entries[i].completion})
		}
	default:
		// MPI-IO collectives: matched (error detection) but not
		// synchronizing — the reason the sync-barrier-sync construct
		// exists.
	}
}

// matchP2P pairs sends and receives per (comm, src, dst, tag) bucket in FIFO
// order.
func (m *matcher) matchP2P() {
	keys := make([]p2pKey, 0, len(m.sends)+len(m.recvs))
	seen := map[p2pKey]bool{}
	for k := range m.sends {
		keys = append(keys, k)
		seen[k] = true
	}
	for k := range m.recvs {
		if !seen[k] {
			keys = append(keys, k)
		}
	}
	slices.SortFunc(keys, func(a, b p2pKey) int {
		if c := cmp.Compare(a.comm, b.comm); c != 0 {
			return c
		}
		if c := cmp.Compare(a.src, b.src); c != 0 {
			return c
		}
		if c := cmp.Compare(a.dst, b.dst); c != 0 {
			return c
		}
		return cmp.Compare(a.tag, b.tag)
	})

	for _, key := range keys {
		sends := m.sends[key]
		recvs := m.recvs[key]
		// Receives match in posting order (non-overtaking): sort by the
		// initiation record.
		slices.SortFunc(recvs, func(a, b recvEntry) int { return refCompare(a.init, b.init) })
		n := len(sends)
		if len(recvs) < n {
			n = len(recvs)
		}
		for k := 0; k < n; k++ {
			m.res.Edges = append(m.res.Edges, Edge{From: sends[k].init, To: recvs[k].completion})
			m.res.P2P++
		}
		for k := n; k < len(sends); k++ {
			m.problem(UnmatchedSend,
				fmt.Sprintf("send on %s to world rank %d tag %d has no matching receive", key.comm, key.dst, key.tag),
				sends[k].init)
		}
		for k := n; k < len(recvs); k++ {
			m.problem(UnmatchedRecv,
				fmt.Sprintf("receive on %s from comm rank %d tag %d has no matching send", key.comm, key.src, key.tag),
				recvs[k].init)
		}
	}
}

// sortEdges orders edges over nranks ranks by (From, To) under refCompare —
// join nodes (rank -1) by Seq first, then records rank-major — without a
// comparator. Every endpoint gets a dense id in that order (join k is k;
// record (r, s) is the join count plus the id extents of the ranks below r
// plus s), every edge the key from<<32 | to, so key order is edge order; the
// keys are radix sorted and the edges unpacked from them. It fails, leaving
// edges as they were, when an endpoint is neither a join nor a record
// position on one of the ranks or the ids need more than 32 bits.
func sortEdges(edges []Edge, nranks int) error {
	// base[r+1] is the id of record (r, 0), base[0] = 0 that of join 0, and
	// base[nranks+1] the id count: each rank's extent — its highest Seq in
	// the list plus one, the joins' at index 0 — then exclusive prefix sums.
	base := make([]uint64, nranks+2)
	for _, e := range edges {
		for _, ref := range [2]trace.Ref{e.From, e.To} {
			if ref.Seq < 0 || ref.Rank < joinRank || int(ref.Rank) >= nranks {
				return fmt.Errorf("match: edge %v→%v has an endpoint outside the edge-key space", e.From, e.To)
			}
			base[ref.Rank+1] = max(base[ref.Rank+1], uint64(ref.Seq)+1)
		}
	}
	var ids uint64 // at most 2³¹ ranks of 2³¹ ids each: no overflow
	for i, n := range base {
		base[i] = ids
		ids += n
	}
	if ids >= 1<<32 {
		return fmt.Errorf("match: %d edge endpoint ids exceed the 32-bit edge-key space", ids)
	}
	keys := make([]uint64, len(edges))
	for i, e := range edges {
		keys[i] = (base[e.From.Rank+1]+uint64(e.From.Seq))<<32 | (base[e.To.Rank+1] + uint64(e.To.Seq))
	}
	from := 0 // base index of the current From id; From ids ascend
	for i, k := range radixSort(keys) {
		f, t := k>>32, k&(1<<32-1)
		for base[from+1] <= f {
			from++
		}
		to := sort.Search(nranks+1, func(j int) bool { return base[j] > t }) - 1
		edges[i] = Edge{
			From: trace.Ref{Rank: int32(from - 1), Seq: int32(f - base[from])},
			To:   trace.Ref{Rank: int32(to - 1), Seq: int32(t - base[to])},
		}
	}
	return nil
}

// radixSort sorts keys with a byte-wise LSD radix sort that skips every byte
// position on which all keys agree, and returns the sorted slice: keys itself
// or a scratch slice of the same length.
func radixSort(keys []uint64) []uint64 {
	var at [8][256]int // per byte position: bucket counts, then bucket starts
	for _, k := range keys {
		for d := range at {
			at[d][k>>(8*d)&0xff]++
		}
	}
	src, dst := keys, []uint64(nil)
	for d := range at {
		next, shift := &at[d], 8*d
		if len(keys) == 0 || next[keys[0]>>shift&0xff] == len(keys) {
			continue
		}
		if dst == nil {
			dst = make([]uint64, len(keys))
		}
		start := 0
		for b, n := range next {
			next[b] = start
			start += n
		}
		for _, k := range src {
			b := k >> shift & 0xff
			dst[next[b]] = k
			next[b]++
		}
		src, dst = dst, src
	}
	return src
}

func (m *matcher) sortOutputs(nranks int) error {
	if err := sortEdges(m.res.Edges, nranks); err != nil {
		return err
	}
	slices.SortFunc(m.res.Problems, func(a, b Problem) int {
		if c := cmp.Compare(a.Kind, b.Kind); c != 0 {
			return c
		}
		return cmp.Compare(a.Detail, b.Detail)
	})
	return nil
}

// refCompare orders refs by rank, then program order — trace.Ref.Less as a
// three-way comparison for slices.SortFunc; sortEdges' order.
func refCompare(a, b trace.Ref) int {
	if c := cmp.Compare(a.Rank, b.Rank); c != 0 {
		return c
	}
	return cmp.Compare(a.Seq, b.Seq)
}
