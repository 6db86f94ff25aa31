package alloc

import (
	"context"
	"strconv"
	"time"

	"regalloc/internal/obs"
	"regalloc/internal/reqtrace"
)

// recordPassSpans replays a finished allocation's PassStats as
// request-trace spans: one "alloc:UNIT" span covering the run, with
// one child span per non-zero phase per pass, laid out sequentially
// from start in cycle order (the order the phases actually ran).
// Durations are the exact integer nanoseconds PassStats carries, so a
// request's span tree reconciles with Summarize's RunSummary and the
// registry — the same invariant the obs span stream keeps.
//
// The untraced path (no reqtrace scope in ctx) costs one context
// lookup and returns immediately.
func recordPassSpans(ctx context.Context, unit string, opt Options, passes []PassStats, start time.Time) {
	rt, parent := reqtrace.FromContext(ctx)
	if rt == nil {
		return
	}
	var total time.Duration
	for _, p := range passes {
		total += p.Build + p.Simplify + p.Color + p.Spill
	}
	unitSpan := rt.Record(parent, "alloc:"+unit, start, total,
		reqtrace.Attr{Key: "heuristic", Value: opt.Heuristic.String()},
		reqtrace.Attr{Key: "passes", Value: strconv.Itoa(len(passes))})
	t := start
	for i, p := range passes {
		pass := strconv.Itoa(i)
		for _, ph := range [...]struct {
			phase obs.Phase
			d     time.Duration
		}{
			{obs.PhaseBuild, p.Build},
			{obs.PhaseSimplify, p.Simplify},
			{obs.PhaseColor, p.Color},
			{obs.PhaseSpill, p.Spill},
		} {
			if ph.d <= 0 {
				continue
			}
			rt.Record(unitSpan, "phase:"+ph.phase.String(), t, ph.d,
				reqtrace.Attr{Key: "pass", Value: pass})
			t = t.Add(ph.d)
		}
	}
}
