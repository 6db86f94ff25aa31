// Package color implements the three coloring heuristics the paper
// compares:
//
//   - Chaitin's pessimistic heuristic (§2.1): simplify removes
//     trivially-colorable nodes; when stuck it marks the node with
//     the smallest cost/degree ratio as spilled and discards it.
//     If anything was marked, coloring is skipped and spill code is
//     inserted immediately.
//   - The Briggs et al. optimistic heuristic (§2.2–2.3): identical
//     simplification order — including Chaitin's cost/degree choice
//     when stuck — but spill candidates are pushed on the stack like
//     every other node. The select phase colors optimistically and
//     only the nodes that actually receive no color are spilled.
//   - Matula–Beck smallest-last (§2.2): remove a minimum-degree node
//     at every step, cost-blind, with optimistic selection. Included
//     as the linear-time comparator discussed in §3.3.
//
// All three share the degree-bucket worklist (ig.Worklist), so the
// simplification order is identical wherever the heuristics agree,
// and ties are broken identically (lowest live-range number, the
// paper's footnote 4).
package color

import (
	"fmt"
	"math"
	"sync"

	"regalloc/internal/ig"
	"regalloc/internal/ir"
	"regalloc/internal/obs"
)

// Heuristic selects a coloring algorithm.
type Heuristic int

// Heuristics.
const (
	Chaitin Heuristic = iota
	Briggs
	MatulaBeck
	// SSA selects the SSA-form chordal allocator instead of a
	// simplify order: construction, pre-spilling, and dominance-order
	// greedy coloring all live in internal/ssa, dispatched by the
	// alloc driver.
	SSA
	// IRC selects George–Appel iterated register coalescing: the
	// Build/Simplify/Coalesce/Freeze/Spill/Select worklist machine in
	// internal/irc, dispatched by the alloc driver. Coalescing is
	// interleaved with simplification (conservatively, so it never
	// creates spills) instead of running as a pre-pass.
	IRC
	// PColor replaces simplify/select with the Jones–Plassmann
	// first-fit colorer of internal/pcolor, run by package alloc's
	// color step: the pass's graph is colored with an unbounded palette
	// and nodes whose color lands at or beyond the class budget
	// become the pass's spill set. It is cost-blind, so Metric is
	// ignored.
	PColor
)

var heuristicNames = [...]string{"chaitin", "briggs", "matula-beck", "ssa", "irc", "pcolor"}

func (h Heuristic) String() string {
	if int(h) < len(heuristicNames) {
		return heuristicNames[h]
	}
	return fmt.Sprintf("Heuristic(%d)", int(h))
}

// HeuristicSpellings enumerates every name ParseHeuristic accepts,
// grouped by heuristic with aliases slash-separated. Error messages
// and CLI/API docs render it, so the list of legal values has one
// source of truth.
const HeuristicSpellings = "chaitin/old, briggs/new/optimistic, matula-beck/mb/smallest-last, ssa/chordal, irc/iterated, pcolor"

// ParseHeuristic resolves a heuristic by name; the accepted spellings
// are HeuristicSpellings. An unknown name yields an error that
// enumerates them.
func ParseHeuristic(s string) (Heuristic, error) {
	switch s {
	case "chaitin", "old":
		return Chaitin, nil
	case "briggs", "new", "optimistic":
		return Briggs, nil
	case "matula-beck", "mb", "smallest-last":
		return MatulaBeck, nil
	case "ssa", "chordal":
		return SSA, nil
	case "irc", "iterated":
		return IRC, nil
	case "pcolor":
		return PColor, nil
	}
	return 0, fmt.Errorf("unknown heuristic %q (accepted: %s)", s, HeuristicSpellings)
}

// Metric selects the spill-choice figure of merit when simplify is
// stuck. The paper uses cost/degree; the alternatives exist for the
// ablation study in EXPERIMENTS.md.
type Metric int

// Metrics.
const (
	CostOverDegree Metric = iota // Chaitin's choice (the default)
	CostOnly                     // spill the cheapest range outright
	DegreeOnly                   // spill the highest-degree range
)

// K maps a register class to the number of available colors.
type K func(ir.Class) int

// NumColors returns a K for the common two-class machine.
func NumColors(kInt, kFloat int) K {
	return func(c ir.Class) int {
		if c == ir.ClassInt {
			return kInt
		}
		return kFloat
	}
}

// SimplifyResult is the output of the simplification phase.
type SimplifyResult struct {
	// Stack is the removal order; Select colors from the end.
	Stack []int32
	// SpillMarked lists nodes Chaitin's heuristic marked for
	// spilling (removed from the graph, not stacked). Empty for
	// Briggs and Matula–Beck.
	SpillMarked []int32
	// Candidates lists the nodes removed while stuck (degree >= k at
	// removal). For Chaitin it equals SpillMarked; for Briggs these
	// are the optimistically stacked potential spills.
	Candidates []int32
	// ScanSteps is the total bucket-scan work, for the linearity
	// check.
	ScanSteps int
}

// Scratch holds the reusable working state of one simplify+select
// round: the degree-bucket worklists, the removal stack, and the
// select-phase color buffers. Reusing one Scratch across the passes
// of the Figure 4 cycle (or across coloring runs on a fixed graph)
// makes the steady-state coloring pass allocation-free — the
// property TestColoringPassAllocs pins with testing.AllocsPerRun.
// A Scratch is not safe for concurrent use; the zero value is ready.
type Scratch struct {
	wl  ig.Worklist
	res SimplifyResult

	colors   []int16
	inserted []bool
	used     []bool
	uncol    []int32
}

// scratchPool feeds the non-Into entry points, so even callers that
// never thread a Scratch stop paying per-call worklist allocations
// once the pool is warm.
var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// Simplify runs the simplification phase of heuristic h over g.
// cost[n] is the estimated spill cost of node n (ignored by
// MatulaBeck).
func Simplify(g *ig.Graph, cost []float64, k K, h Heuristic, metric Metric) *SimplifyResult {
	return SimplifyTraced(g, cost, k, h, metric, nil)
}

// SimplifyTraced is Simplify with an observability tracer: each time
// the phase is stuck and falls back on the spill-choice metric, the
// picked node, its current degree, its cost, and the metric value
// that won are emitted as a spill-decision event. A nil tracer makes
// it identical to Simplify.
func SimplifyTraced(g *ig.Graph, cost []float64, k K, h Heuristic, metric Metric, tr *obs.Tracer) *SimplifyResult {
	sc := scratchPool.Get().(*Scratch)
	res := SimplifyInto(sc, g, cost, k, h, metric, tr)
	// The result escapes the pool round-trip: copy the slices out so
	// the scratch can be reused immediately.
	out := &SimplifyResult{
		Stack:       append([]int32(nil), res.Stack...),
		SpillMarked: append([]int32(nil), res.SpillMarked...),
		Candidates:  append([]int32(nil), res.Candidates...),
		ScanSteps:   res.ScanSteps,
	}
	scratchPool.Put(sc)
	return out
}

// SimplifyInto is SimplifyTraced into caller-owned scratch: the
// returned result's slices alias sc and stay valid until the next
// SimplifyInto on the same scratch. This is the allocation-free
// entry point the per-pass cycle uses.
func SimplifyInto(sc *Scratch, g *ig.Graph, cost []float64, k K, h Heuristic, metric Metric, tr *obs.Tracer) *SimplifyResult {
	return SimplifyPreInto(sc, g, nil, cost, k, h, metric, tr)
}

// SimplifyPreInto is SimplifyInto over a graph with precolored nodes:
// pre[n] >= 0 fixes node n's color, and such nodes never enter the
// worklist — they are not simplified, never spill candidates, and
// keep contributing their (effectively infinite) degree pressure to
// every neighbor for the whole phase. cost may cover only the
// uncolored prefix; precolored nodes never have their cost read.
// A nil pre is the plain SimplifyInto.
func SimplifyPreInto(sc *Scratch, g *ig.Graph, pre []int16, cost []float64, k K, h Heuristic, metric Metric, tr *obs.Tracer) *SimplifyResult {
	res := &sc.res
	res.Stack = res.Stack[:0]
	res.SpillMarked = res.SpillMarked[:0]
	res.Candidates = res.Candidates[:0]
	res.ScanSteps = 0
	// The integer and float subgraphs are disjoint; simplify each.
	for _, cls := range []ir.Class{ir.ClassInt, ir.ClassFloat} {
		simplifyClass(sc, g, pre, cost, k(cls), cls, h, metric, res, tr)
	}
	return res
}

func simplifyClass(sc *Scratch, g *ig.Graph, pre []int16, cost []float64, k int, cls ir.Class, h Heuristic, metric Metric, res *SimplifyResult, tr *obs.Tracer) {
	w := &sc.wl
	w.InitPre(g, cls, pre)
	for w.Remaining() > 0 {
		n := w.MinDegreeNode()
		if h == MatulaBeck || int(w.Degree(n)) < k {
			// Trivially colorable (or cost-blind smallest-last).
			w.Remove(n)
			res.Stack = append(res.Stack, n)
			continue
		}
		// Stuck: every remaining node has degree >= k. Fall back on
		// the spill-choice metric (paper §2.3).
		pick, val := chooseSpill(w, cost, metric)
		tr.SpillDecision(pick, w.Degree(pick), cost[pick], val)
		w.Remove(pick)
		res.Candidates = append(res.Candidates, pick)
		if h == Chaitin {
			res.SpillMarked = append(res.SpillMarked, pick)
		} else {
			res.Stack = append(res.Stack, pick)
		}
	}
	res.ScanSteps += w.ScanSteps
}

// chooseSpill picks the node to remove while stuck and returns it
// with its metric value. Ties are broken toward the lowest node
// number. The scan is a plain loop rather than ForEachRemaining: the
// closure that callback needs heap-escapes its captures on every
// stuck step, and this is the one piece of simplify that runs per
// spill decision on the zero-allocation pass path.
func chooseSpill(w *ig.Worklist, cost []float64, metric Metric) (int32, float64) {
	best := int32(-1)
	bestVal := math.Inf(1)
	for i, n := 0, w.NumNodes(); i < n; i++ {
		a := int32(i)
		if !w.InClass(a) || w.Removed(a) {
			continue
		}
		var v float64
		switch metric {
		case CostOnly:
			v = cost[a]
		case DegreeOnly:
			v = -float64(w.Degree(a))
		default:
			v = cost[a] / float64(w.Degree(a))
		}
		if best == -1 || v < bestVal {
			best = a
			bestVal = v
		}
	}
	return best, bestVal
}

// NoColor marks an uncolored (spilled) node in a color assignment.
const NoColor int16 = -1

// Select runs the coloring phase: nodes are reinserted in reverse
// removal order and given the lowest color unused by their already-
// colored neighbors.
//
// With optimistic=false (Chaitin), failure to find a color panics —
// the caller must only invoke Select when simplification marked
// nothing for spilling, in which case coloring is guaranteed.
// With optimistic=true (Briggs, Matula–Beck), colorless nodes stay
// NoColor and are returned as the spill set.
func Select(g *ig.Graph, stack []int32, k K, optimistic bool) (colors []int16, uncolored []int32) {
	return SelectTraced(g, &SimplifyResult{Stack: stack}, k, optimistic, nil)
}

// SelectTraced is Select over a full SimplifyResult, with an
// observability tracer. Whenever a node that simplify removed as a
// spill candidate (sr.Candidates: degree >= k at removal) receives a
// color after all, a color-reuse event is emitted carrying the
// node's degree, the number of distinct colors its already-colored
// neighbors occupy, and the color assigned — the event stream that
// witnesses *why* optimistic coloring beats Chaitin (§2.2: many
// high-degree nodes have neighbors that reuse few colors). A nil
// tracer makes it identical to Select.
func SelectTraced(g *ig.Graph, sr *SimplifyResult, k K, optimistic bool, tr *obs.Tracer) (colors []int16, uncolored []int32) {
	sc := scratchPool.Get().(*Scratch)
	cbuf, ubuf := SelectInto(sc, g, sr, k, optimistic, tr)
	colors = append([]int16(nil), cbuf...)
	if len(ubuf) > 0 {
		uncolored = append([]int32(nil), ubuf...)
	}
	scratchPool.Put(sc)
	return colors, uncolored
}

// SelectInto is SelectTraced into caller-owned scratch: the returned
// slices alias sc and stay valid until the next SelectInto on the
// same scratch. Callers that keep a finished coloring (the final
// pass) must copy it out before reusing the scratch.
func SelectInto(sc *Scratch, g *ig.Graph, sr *SimplifyResult, k K, optimistic bool, tr *obs.Tracer) (colors []int16, uncolored []int32) {
	return SelectPreInto(sc, g, nil, sr, k, optimistic, tr)
}

// SelectPreInto is SelectInto over a graph with precolored nodes:
// before the stack is replayed, every node with pre[n] >= 0 is seeded
// with its fixed color as already inserted, so the reinserted nodes
// color around the physical registers exactly as they colored around
// each other. Simplification (SimplifyPreInto) kept precolored
// degrees intact, so Chaitin's guarantee — a stacked node saw fewer
// than k neighbors, precolored included — still holds and the
// pessimistic path cannot run out of colors. A nil pre is the plain
// SelectInto.
func SelectPreInto(sc *Scratch, g *ig.Graph, pre []int16, sr *SimplifyResult, k K, optimistic bool, tr *obs.Tracer) (colors []int16, uncolored []int32) {
	stack := sr.Stack
	var candidate []bool
	if tr.Enabled() && len(sr.Candidates) > 0 {
		candidate = make([]bool, g.NumNodes())
		for _, n := range sr.Candidates {
			candidate[n] = true
		}
	}
	colors = growInt16(sc.colors, g.NumNodes())
	sc.colors = colors
	for i := range colors {
		colors[i] = NoColor
	}
	inserted := growBool(sc.inserted, g.NumNodes())
	sc.inserted = inserted
	for i := range inserted {
		inserted[i] = false
	}
	for n, c := range pre {
		if c >= 0 {
			colors[n] = c
			inserted[n] = true
		}
	}
	used := sc.used
	sc.uncol = sc.uncol[:0]
	for i := len(stack) - 1; i >= 0; i-- {
		n := stack[i]
		kn := k(g.Class(n))
		if cap(used) < kn {
			used = make([]bool, kn)
		}
		used = used[:kn]
		for j := range used {
			used[j] = false
		}
		for _, nb := range g.Neighbors(n) {
			if inserted[nb] && colors[nb] != NoColor && int(colors[nb]) < kn {
				used[colors[nb]] = true
			}
		}
		c := int16(NoColor)
		inUse := 0
		if candidate == nil {
			for j := 0; j < kn; j++ {
				if !used[j] {
					c = int16(j)
					break
				}
			}
		} else {
			// Traced path: also count the distinct colors in use, the
			// quantity the color-reuse event reports.
			for j := 0; j < kn; j++ {
				if used[j] {
					inUse++
				} else if c == NoColor {
					c = int16(j)
				}
			}
		}
		inserted[n] = true
		if c == NoColor {
			if !optimistic {
				panic("color: pessimistic Select ran out of colors; simplify guaranteed this cannot happen")
			}
			sc.uncol = append(sc.uncol, n)
			continue
		}
		colors[n] = c
		if candidate != nil && candidate[n] {
			tr.ColorReuse(n, int32(g.Degree(n)), inUse, c)
		}
	}
	sc.used = used
	if len(sc.uncol) > 0 {
		uncolored = sc.uncol
	}
	return colors, uncolored
}

func growBool(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

func growInt16(s []int16, n int) []int16 {
	if cap(s) < n {
		return make([]int16, n)
	}
	return s[:n]
}

// Verify checks that an assignment is a proper coloring: no two
// interfering nodes share a color and every color is within its
// class bound. Spilled (NoColor) nodes are ignored. It returns an
// error describing the first violation.
func Verify(g *ig.Graph, colors []int16, k K) error {
	for a := int32(0); a < int32(g.NumNodes()); a++ {
		if colors[a] == NoColor {
			continue
		}
		if int(colors[a]) >= k(g.Class(a)) {
			return fmt.Errorf("node %d has color %d, out of range for class %s (k=%d)",
				a, colors[a], g.Class(a), k(g.Class(a)))
		}
		for _, nb := range g.Neighbors(a) {
			if nb > a && colors[nb] == colors[a] {
				return fmt.Errorf("interfering nodes %d and %d share color %d", a, nb, colors[a])
			}
		}
	}
	return nil
}
