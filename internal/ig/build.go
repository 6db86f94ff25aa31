package ig

import (
	"regalloc/internal/bitset"
	"regalloc/internal/dataflow"
	"regalloc/internal/ir"
	"regalloc/internal/obs"
)

// BuildWithLiveness constructs the interference graph of f reusing a
// precomputed full liveness (which must describe f's current
// registers — any renumbering or rewriting since lv was computed
// invalidates it).
// This is the allocator's per-pass analysis-cache entry point: the
// Figure 4 cycle computes liveness once per pass and threads it
// through coalescing and graph construction instead of recomputing it
// at every build. A nil tracer disables the build counters.
func BuildWithLiveness(f *ir.Func, lv *dataflow.Liveness, tr *obs.Tracer) *Graph {
	classes := make([]ir.Class, f.NumRegs())
	for i := range classes {
		classes[i] = f.RegClass(ir.Reg(i))
	}
	g := New(classes)
	attempts := 0
	for _, b := range f.Blocks {
		enumerateBlock(f, lv, b, func(d, l int32) {
			attempts++
			g.AddEdge(d, l)
		})
	}
	if tr.Enabled() {
		tr.Counter(obs.PhaseBuild, "ig.edge_inserts", int64(attempts))
	}
	// Compile the CSR now, while the build phase owns the graph: the
	// first consumer query may come from inside a timed phase or a
	// concurrent pcolor worker.
	g.Finalize()
	return g
}

// enumerateBlock walks block b's instructions backward and reports
// every candidate interference (def × live-after, minus the defined
// register itself and a move's source) to emit; the graph dedups
// repeats via its bit-matrix/hash dual.
func enumerateBlock(f *ir.Func, lv *dataflow.Liveness, b *ir.Block, emit func(d, l int32)) {
	lv.LiveAcross(f, b, func(_ int, in *ir.Instr, liveAfter *bitset.Set) {
		d := in.Def()
		if d == ir.NoReg {
			return
		}
		moveSrc := ir.NoReg
		if in.IsMove() {
			moveSrc = in.A
		}
		liveAfter.ForEach(func(l int) {
			if ir.Reg(l) != d && ir.Reg(l) != moveSrc {
				emit(int32(d), int32(l))
			}
		})
	})
}
