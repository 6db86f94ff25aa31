package alloc

import (
	"regalloc/internal/color"
	"regalloc/internal/ig"
	"regalloc/internal/ir"
	"regalloc/internal/obs"
	"regalloc/internal/pcolor"
)

// pcolorSeed fixes the permutation the PColor heuristic colors in.
// Under Jones–Plassmann the coloring depends on the seed alone, so
// the heuristic needs no worker count: candidates already run inside
// the unit pool and the portfolio's race pool, and one goroutine per
// coloring keeps the result independent of the host.
const pcolorSeed = 1

// colorPColor is the PColor heuristic's color step. It colors g with
// an unbounded Jones–Plassmann first-fit palette, then spills every
// node whose color landed at or beyond its class budget. The
// survivors keep their colors (a subset of a proper coloring is
// proper), so an empty spill set is a finished allocation.
func colorPColor(work *ir.Func, g *ig.Graph, costs []float64, kf color.K, tr *obs.Tracer) (colors []int16, spills []int32) {
	colors, _ = pcolor.Color(g, pcolor.Options{Workers: 1, Seed: pcolorSeed, Algo: pcolor.JonesPlassmann, Tracer: tr})
	isTemp := func(v int32) bool { return work.RegFlags(ir.Reg(v))&ir.FlagSpillTemp != 0 }
	var marked []int32
	for v := int32(0); v < int32(len(colors)); v++ {
		if int(colors[v]) >= kf(g.Class(v)) {
			colors[v] = color.NoColor
			marked = append(marked, v)
		}
	}
	// Optimistic rescue, the same move Select makes for spill
	// candidates: with every over-budget node cleared, first-fit each
	// one again against the surviving assignment — spilling one
	// over-budget node often frees a low color for another.
	// Sequential, so the outcome is deterministic. Nodes that still
	// don't fit are the pass's spill set. Spill temporaries go first:
	// they cannot be spilled again, so they must claim a freed color
	// before ordinary ranges (created late, their node numbers sort
	// them last, which is exactly the wrong rescue order for them).
	order := marked
	for _, v := range marked {
		if isTemp(v) {
			order = make([]int32, 0, len(marked))
			for _, w := range marked {
				if isTemp(w) {
					order = append(order, w)
				}
			}
			for _, w := range marked {
				if !isTemp(w) {
					order = append(order, w)
				}
			}
			break
		}
	}
	var used []bool
	for _, v := range order {
		kn := kf(g.Class(v))
		if cap(used) < kn {
			used = make([]bool, kn)
		}
		used = used[:kn]
		for j := range used {
			used[j] = false
		}
		for _, nb := range g.Neighbors(v) {
			if c := colors[nb]; c != color.NoColor && int(c) < kn {
				used[c] = true
			}
		}
		c := color.NoColor
		inUse := 0
		for j := 0; j < kn; j++ {
			if used[j] {
				inUse++
			} else if c == color.NoColor {
				c = int16(j)
			}
		}
		if c == color.NoColor && isTemp(v) {
			// A spill temporary must not spill again. Apply Chaitin's
			// rule in miniature: evict the cheapest ordinary neighbor
			// (spilling it instead) until a color frees up. Evictions
			// target real ranges, so this is also what makes the
			// cost-blind engine reduce pressure and converge; a
			// temporary with only temporary neighbors falls through to
			// the same hard error the other heuristics report.
			for c == color.NoColor {
				w := int32(-1)
				for _, nb := range g.Neighbors(v) {
					cb := colors[nb]
					if cb == color.NoColor || int(cb) >= kn || isTemp(nb) {
						continue
					}
					if w < 0 || costs[nb] < costs[w] || (costs[nb] == costs[w] && nb < w) {
						w = nb
					}
				}
				if w < 0 {
					break
				}
				tr.SpillDecision(w, int32(g.Degree(w)), costs[w], costs[w])
				colors[w] = color.NoColor
				spills = append(spills, w)
				for j := range used {
					used[j] = false
				}
				for _, nb := range g.Neighbors(v) {
					if cb := colors[nb]; cb != color.NoColor && int(cb) < kn {
						used[cb] = true
					}
				}
				for j := 0; j < kn; j++ {
					if !used[j] {
						c = int16(j)
						break
					}
				}
			}
		}
		if c == color.NoColor {
			tr.SpillDecision(v, int32(g.Degree(v)), costs[v], float64(g.Degree(v)))
			spills = append(spills, v)
			continue
		}
		colors[v] = c
		tr.ColorReuse(v, int32(g.Degree(v)), inUse, c)
	}
	return colors, spills
}
