package alloc

import (
	"regalloc/internal/cfg"
	"regalloc/internal/dataflow"
	"regalloc/internal/ir"
	"regalloc/internal/obs"
)

// passCtx is the per-pass analysis cache. One trip around the Figure
// 4 cycle needs live-variable analysis (graph build, coalescing) and
// CFG/loop analysis (spill-cost depths, split insertion); before
// this cache the driver recomputed liveness at every coalesce round
// plus once more for the post-coalesce rebuild, and ran cfg.Analyze
// twice per pass in split mode. passCtx computes each analysis
// exactly once when the pass starts and re-derives liveness only at
// the points that genuinely invalidate it (a renumbering after a
// successful coalesce). The run counts are published as build-phase
// counters so tests — and trace consumers — can hold the allocator
// to the one-analysis-per-pass contract.
type passCtx struct {
	lv   *dataflow.Liveness
	info *cfg.Info

	livenessRuns int
	cfgRuns      int
}

// newPassCtx analyzes work once: liveness for the pass's graph
// builds and CFG/loop nesting for its cost estimates and (in split
// mode) its spill insertion. Renumbering must already have happened —
// liveness is per-register and a renumber would stale it. Block
// depths are stamped as a side effect of cfg.Analyze and stay valid
// for the whole pass: nothing before spill insertion adds or removes
// blocks.
func newPassCtx(work *ir.Func) *passCtx {
	pc := &passCtx{}
	pc.refreshLiveness(work)
	pc.info = cfg.Analyze(work)
	pc.cfgRuns++
	return pc
}

// refreshLiveness recomputes the liveness sets after a rewrite that
// renamed registers (the post-coalesce renumber).
func (pc *passCtx) refreshLiveness(work *ir.Func) {
	pc.lv = dataflow.ComputeLiveness(work)
	pc.livenessRuns++
}

// emitCounters publishes the pass's analysis-run totals, counting
// full liveness solves only. On the non-coalescing path both must be
// exactly 1. Aggressive coalescing adds one liveness run for the
// post-coalesce renumber, however many rounds it takes (its rounds
// solve liveness over their copy registers alone); conservative
// coalescing adds one more per merging round.
func (pc *passCtx) emitCounters(tr *obs.Tracer) {
	if !tr.Enabled() {
		return
	}
	tr.Counter(obs.PhaseBuild, "analysis.liveness_runs", int64(pc.livenessRuns))
	tr.Counter(obs.PhaseBuild, "analysis.cfg_runs", int64(pc.cfgRuns))
}
