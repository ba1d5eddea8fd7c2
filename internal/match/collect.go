package match

import (
	"cmp"
	"fmt"
	"slices"

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

// refCompare orders refs by rank, then program order — trace.Ref.Less as a
// three-way comparison for slices.SortFunc; Pairwise's order.
func refCompare(a, b trace.Ref) int {
	if c := cmp.Compare(a.Rank, b.Rank); c != 0 {
		return c
	}
	return cmp.Compare(a.Seq, b.Seq)
}
