// Package coalesce implements Chaitin-style aggressive copy
// coalescing: any register-to-register move whose source and
// destination do not interfere is eliminated by merging the two live
// ranges, and the build/coalesce step repeats until no move can be
// removed (the inner loop of the paper's Figure 4 "build" box).
//
// This is the pre-pass flavor of coalescing: each move is tested once
// (aggressively, or conservatively under Options.ConservativeCoalesce)
// against the full-pressure interference relation before any
// simplification happens. A round asks only whether each candidate
// copy's two ends interfere, so it answers exactly that: liveness
// restricted to the candidates' registers, and a backward walk that
// checks each def against its own copy partners alone. Nothing builds
// the whole graph unless a graph is needed — the conservative test
// reads neighbor lists, and a run that merges nothing returns its
// graph. The complementary approach — retesting every move as
// simplification lowers its neighborhood's degrees — lives in
// internal/irc, the George–Appel iterated-register-coalescing worklist
// machine that the irc heuristic runs as a terminal round on top of
// this pre-pass.
package coalesce

import (
	"regalloc/internal/bitset"
	"regalloc/internal/dataflow"
	"regalloc/internal/ig"
	"regalloc/internal/ir"
	"regalloc/internal/obs"
)

// Stats summarizes one coalescing run for the caller's accounting.
type Stats struct {
	// Moves is the total number of copies eliminated.
	Moves int
	// Rounds is the number of build/coalesce rounds run (always at
	// least one; the last round merges nothing).
	Rounds int
	// LivenessRuns counts the full liveness solves the run made. Only
	// conservative rounds after a merge need one (their Briggs test
	// reads a full graph); aggressive rounds solve liveness over their
	// candidate registers alone, which is not counted, so an
	// aggressive run always reports zero.
	LivenessRuns int
}

// Run coalesces moves in f until fixpoint, rewriting registers and
// deleting the eliminated copies. It returns the number of moves
// removed and the interference graph of the final program, which the
// caller may reuse.
//
// Moves involving a spill temporary are never coalesced: merging a
// reload temporary back into a long-lived range would undo the spill
// and could keep the allocator from converging.
func Run(f *ir.Func) (int, *ig.Graph) {
	st, g := RunWithLiveness(f, dataflow.ComputeLiveness(f), nil, nil)
	return st.Moves, finalGraph(f, g)
}

// finalGraph upholds the convenience entry points' contract of always
// returning a graph: when RunWithLiveness skipped the final build
// (because merged moves force the caller to renumber and rebuild
// anyway), build one for the rewritten function here.
func finalGraph(f *ir.Func, g *ig.Graph) *ig.Graph {
	if g == nil {
		g = ig.BuildWithLiveness(f, dataflow.ComputeLiveness(f), nil)
	}
	return g
}

// RunConservative coalesces with the Briggs conservative test that
// the same authors published five years after this paper
// ("Improvements to Graph Coloring Register Allocation", TOPLAS
// 1994): a move is merged only when the combined node would have
// fewer than k neighbors of significant degree (degree >= k for
// their class), which guarantees the merge can never turn a
// colorable graph into a spilling one. Included as an ablation — the
// paper's own allocator coalesces aggressively.
func RunConservative(f *ir.Func, k func(ir.Class) int) (int, *ig.Graph) {
	st, g := RunWithLiveness(f, dataflow.ComputeLiveness(f), k, nil)
	return st.Moves, finalGraph(f, g)
}

// RunWithLiveness is the allocator's cache-aware entry point: lv must
// be a current full liveness for f, which the first round reuses.
// conservativeK, when non-nil, switches to the Briggs conservative
// test.
//
// Each round lists its candidate copies and asks, for each, whether
// its ends interfere (see interfering). Later aggressive rounds answer
// from liveness solved over the candidates' registers alone — the
// rewrite renamed registers, so lv is stale, but only those bits are
// read. Conservative rounds build the full graph the Briggs test
// reads, and so re-solve full liveness after every merging round.
//
// The returned graph is non-nil only when no move was merged: a
// convergence-without-merges round's graph still describes f exactly,
// so the caller can color on it directly. After any merge, f has been
// rewritten and the caller must renumber before building the graph it
// will color on — returning one here would only be thrown away, so
// none is built.
func RunWithLiveness(f *ir.Func, lv *dataflow.Liveness, conservativeK func(ir.Class) int, tr *obs.Tracer) (Stats, *ig.Graph) {
	var st Stats
	var bt briggsScratch // per call: Assemble runs calls concurrently
	for {
		examined, cands := candidates(f)
		partners := indexPartners(f.NumRegs(), cands)
		regs := partners.regs()
		var g *ig.Graph
		if conservativeK != nil {
			g = ig.BuildWithLiveness(f, lv, tr)
		} else if st.Rounds > 0 && len(cands) > 0 {
			lv = dataflow.ComputeLivenessOf(f, regs)
		}
		interferes := partners.interfering(f, lv, len(cands))

		parent := make([]ir.Reg, f.NumRegs())
		for i := range parent {
			parent[i] = ir.Reg(i)
		}
		find := func(x ir.Reg) ir.Reg {
			for parent[x] != x {
				parent[x] = parent[parent[x]]
				x = parent[x]
			}
			return x
		}

		merged := 0
		touched := make([]bool, f.NumRegs())
		for i, c := range cands {
			dst, src := c.dst, c.src
			// Only coalesce pairs untouched in this round: the
			// interference answers describe the ranges as they were
			// when the round began, not a range merged moments ago
			// (its true neighbor set is already larger). Chained
			// copies are picked up by the next round.
			if touched[dst] || touched[src] || interferes[i] {
				continue
			}
			if conservativeK != nil && !bt.test(g, dst, src, conservativeK(f.RegClass(dst))) {
				continue
			}
			touched[dst] = true
			touched[src] = true
			// Merge into the smaller id for determinism.
			if src < dst {
				dst, src = src, dst
			}
			parent[src] = dst
			merged++
		}
		if tr.Enabled() {
			tr.Counter(obs.PhaseCoalesce, "coalesce.examined", int64(examined))
			tr.Counter(obs.PhaseCoalesce, "coalesce.candidate_regs", int64(len(regs)))
			tr.Counter(obs.PhaseCoalesce, "coalesce.merged", int64(merged))
		}
		st.Rounds++
		if merged == 0 {
			if tr.Enabled() {
				tr.Counter(obs.PhaseCoalesce, "coalesce.rounds", int64(st.Rounds))
			}
			if st.Moves > 0 {
				return st, nil // f was rewritten; see the contract above
			}
			if g == nil {
				// The first round, so lv is still the caller's full
				// liveness for f.
				g = ig.BuildWithLiveness(f, lv, tr)
			}
			return st, g
		}
		st.Moves += merged
		rewrite(f, find)
		if conservativeK != nil {
			lv = dataflow.ComputeLiveness(f)
			st.LivenessRuns++
		}
	}
}

// copyPair is one candidate copy: a move between two distinct
// registers of the same class, neither of them a spill temporary.
type copyPair struct{ dst, src ir.Reg }

// candidates lists f's candidate copies in program order, and counts
// every move between two distinct registers (coalesce.examined).
func candidates(f *ir.Func) (examined int, cands []copyPair) {
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if !in.IsMove() || in.A == ir.NoReg || in.Dst == in.A {
				continue
			}
			examined++
			dst, src := in.Dst, in.A
			if f.RegClass(dst) != f.RegClass(src) {
				continue
			}
			if f.RegFlags(dst)&ir.FlagSpillTemp != 0 || f.RegFlags(src)&ir.FlagSpillTemp != 0 {
				continue
			}
			cands = append(cands, copyPair{dst, src})
		}
	}
	return examined, cands
}

// partner is one end of a candidate copy seen from the other end.
type partner struct {
	reg  ir.Reg
	cand int32 // index of the copy in the candidate list
}

// partnerIndex lists each register's copy partners: those of r are
// adj[off[r]:off[r+1]].
type partnerIndex struct {
	off []int32
	adj []partner
}

func indexPartners(nregs int, cands []copyPair) partnerIndex {
	off := make([]int32, nregs+1)
	for _, c := range cands {
		off[c.dst+1]++
		off[c.src+1]++
	}
	for r := 1; r <= nregs; r++ {
		off[r] += off[r-1]
	}
	adj := make([]partner, off[nregs])
	next := append([]int32(nil), off[:nregs]...)
	for i, c := range cands {
		adj[next[c.dst]] = partner{c.src, int32(i)}
		next[c.dst]++
		adj[next[c.src]] = partner{c.dst, int32(i)}
		next[c.src]++
	}
	return partnerIndex{off, adj}
}

// regs returns the registers with at least one copy partner, in
// ascending order: the round's candidate registers.
func (p partnerIndex) regs() []ir.Reg {
	var regs []ir.Reg
	for r := 0; r+1 < len(p.off); r++ {
		if p.off[r+1] > p.off[r] {
			regs = append(regs, ir.Reg(r))
		}
	}
	return regs
}

// interfering reports, for each of the n candidate copies, whether
// its two ends interfere, exactly as ig.BuildWithLiveness's graph for
// the same f and lv would answer. lv may be a restricted solve, but
// must cover every candidate register.
//
// It is the graph build's walk — every def against the registers live
// after it, except a move's own source — with the live-after check
// made only against the def's copy partners, never the whole set.
func (p partnerIndex) interfering(f *ir.Func, lv *dataflow.Liveness, n int) []bool {
	out := make([]bool, n)
	if n == 0 {
		return out
	}
	for _, b := range f.Blocks {
		lv.LiveAcross(f, b, func(_ int, in *ir.Instr, liveAfter *bitset.Set) {
			d := in.Def()
			if d == ir.NoReg {
				return
			}
			moveSrc := ir.NoReg
			if in.IsMove() {
				moveSrc = in.A
			}
			for _, q := range p.adj[p.off[d]:p.off[d+1]] {
				if q.reg != moveSrc && liveAfter.Has(lv.Bit(q.reg)) {
					out[q.cand] = true
				}
			}
		})
	}
	return out
}

// briggsScratch backs the conservative test with a stamp array and a
// degree array over the graph's nodes, in place of a map per query.
// It is owned by one RunWithLiveness call and never shared.
type briggsScratch struct {
	stamp []int // 2q-1: a neighbor of query q's merged node; 2q: counted
	deg   []int // effective degree of a neighbor stamped 2q-1
	q     int   // queries made
}

// test is the conservative-coalescing criterion: merging dst and src
// is safe when the combined node has fewer than k neighbors of
// significant degree. A neighbor adjacent to both ends loses one edge
// in the merge, so its effective degree drops by one.
func (s *briggsScratch) test(g *ig.Graph, dst, src ir.Reg, k int) bool {
	if n := g.NumNodes(); len(s.stamp) < n {
		s.stamp = make([]int, n)
		s.deg = make([]int, n)
		s.q = 0
	}
	s.q++
	seen, counted := 2*s.q-1, 2*s.q
	for _, nb := range g.Neighbors(int32(dst)) {
		s.stamp[nb] = seen
		s.deg[nb] = g.Degree(nb)
	}
	for _, nb := range g.Neighbors(int32(src)) {
		if s.stamp[nb] == seen {
			s.deg[nb] = g.Degree(nb) - 1
		} else {
			s.stamp[nb] = seen
			s.deg[nb] = g.Degree(nb)
		}
	}
	// The merged pair itself is no neighbor of the merged node.
	s.stamp[dst], s.stamp[src] = counted, counted
	significant := 0
	for _, nbs := range [2][]int32{g.Neighbors(int32(dst)), g.Neighbors(int32(src))} {
		for _, nb := range nbs {
			if s.stamp[nb] == seen {
				s.stamp[nb] = counted
				if s.deg[nb] >= k {
					significant++
				}
			}
		}
	}
	return significant < k
}

// rewrite renames every operand to its representative and deletes
// moves that became self-copies.
func rewrite(f *ir.Func, find func(ir.Reg) ir.Reg) {
	ren := func(r ir.Reg) ir.Reg {
		if r == ir.NoReg {
			return ir.NoReg
		}
		return find(r)
	}
	for _, b := range f.Blocks {
		out := b.Instrs[:0]
		for i := range b.Instrs {
			in := b.Instrs[i]
			in.Dst = ren(in.Dst)
			in.A = ren(in.A)
			in.B = ren(in.B)
			in.C = ren(in.C)
			for j, a := range in.Args {
				in.Args[j] = ren(a)
			}
			if in.IsMove() && in.Dst == in.A {
				continue // coalesced copy disappears
			}
			out = append(out, in)
		}
		b.Instrs = out
	}
	for i, p := range f.Params {
		f.Params[i] = ren(p)
	}
}
