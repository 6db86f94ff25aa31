package main

import (
	"sort"
	"sync"
	"time"

	"regalloc"
	"regalloc/internal/color"
	"regalloc/internal/obs"
)

// span is one timed interval of the traced run. Spans of one op share
// Op; Parent is 0 for an op's root span.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Op     int32  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	Dur    int64  `json:"dur_ns"`
}

// recorder holds the traced run's spans in memory until the run ends.
// A nil recorder records nothing, which is how the untraced run calls
// the same code.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	ops   int32
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) newOp() int32 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops++
	return r.ops
}

// add records [start, end) under parent and returns the span's ID.
func (r *recorder) add(op, parent int32, name string, start, end time.Time) int32 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int32(len(r.spans) + 1)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(r.epoch).Nanoseconds(), Dur: end.Sub(start).Nanoseconds()})
	return id
}

// begin opens a span starting now; end closes it.
func (r *recorder) begin(op, parent int32, name string) int32 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int32(len(r.spans) + 1)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: time.Since(r.epoch).Nanoseconds()})
	return id
}

func (r *recorder) end(id int32) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.Dur = time.Since(r.epoch).Nanoseconds() - s.Start
}

// layerTime is one span name's total and self time.
type layerTime struct {
	Spans   int     `json:"spans"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// selfTimes computes, per span name, the summed duration and the self
// time: a span's duration minus the part of its interval that its
// children cover (children of one span may run in parallel, so their
// intervals are merged before subtracting).
func (r *recorder) selfTimes() map[string]layerTime {
	children := map[int32][]span{}
	for _, s := range r.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]layerTime{}
	for _, s := range r.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered, curS, curE int64
		open := false
		for _, k := range kids {
			ks, ke := max64(k.Start, s.Start), min64(k.Start+k.Dur, s.Start+s.Dur)
			if ke <= ks {
				continue
			}
			if open && ks <= curE {
				curE = max64(curE, ke)
				continue
			}
			if open {
				covered += curE - curS
			}
			curS, curE, open = ks, ke, true
		}
		if open {
			covered += curE - curS
		}
		lt := out[s.Name]
		lt.Spans++
		lt.TotalMS += float64(s.Dur) / 1e6
		lt.SelfMS += float64(s.Dur-covered) / 1e6
		out[s.Name] = lt
	}
	return out
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// eventSink collects one Allocate call's Observer events. Whole-program
// allocation may emit from several goroutines, so it locks.
type eventSink struct {
	mu     sync.Mutex
	events []regalloc.TraceEvent
}

func (s *eventSink) Emit(e regalloc.TraceEvent) {
	s.mu.Lock()
	s.events = append(s.events, e)
	s.mu.Unlock()
}

// layers accumulates the traced run's per-layer figures: times summed
// over every traced op, and work counters of one round of the
// workload's job set (they repeat exactly from round to round).
type layers struct {
	mu       sync.Mutex
	ms       map[string]float64
	counts   map[string]float64
	counting bool // true while the first traced round runs
}

func newLayers() *layers {
	return &layers{ms: map[string]float64{}, counts: map[string]float64{}}
}

func (l *layers) addMS(name string, d time.Duration) {
	l.mu.Lock()
	l.ms[name] += float64(d) / 1e6
	l.mu.Unlock()
}

func (l *layers) addCount(name string, v float64) {
	l.mu.Lock()
	if l.counting {
		l.counts[name] += v
	}
	l.mu.Unlock()
}

// counterLayer maps the allocator's Observer counter names onto the
// benchmark's layer metric names.
var counterLayer = map[string]string{
	"coalesce.rounds":        "coalesce.rounds",
	"coalesce.examined":      "coalesce.examined",
	"coalesce.merged":        "coalesce.merged",
	"analysis.liveness_runs": "dataflow.liveness_runs",
	"graph.nodes":            "ig.nodes",
	"graph.edges":            "ig.edges",
	"ig.edge_inserts":        "ig.edge_inserts",
	"simplify.scan_steps":    "color.scan_steps",
	"spill.ranges":           "spill.ranges",
	"spill.loads":            "spill.loads",
	"spill.stores":           "spill.stores",
	"irc.moves_coalesced":    "irc.moves_coalesced",
	"irc.moves_constrained":  "irc.moves_constrained",
	"irc.moves_frozen":       "irc.moves_frozen",
	"ssa.phis":               "ssa.phis",
	"ssa.copies":             "ssa.copies",
	"ssa.prespill_rounds":    "ssa.prespill_rounds",
}

// phaseLayer names a Figure 4 phase span by the layer that owns it.
var phaseLayer = [obs.NumPhases]string{
	obs.PhaseBuild:    "alloc.build",
	obs.PhaseCoalesce: "coalesce",
	obs.PhaseSimplify: "color.simplify",
	obs.PhaseColor:    "color.select",
	obs.PhaseSpill:    "spill.insert",
}

// allocate times one Program.Allocate call. Traced, it hangs the
// Observer's phase spans under the Allocate span (coalesce under its
// pass's build) and folds spans and counters into l. The SSA family
// replaces the whole Figure 4 cycle, so its phases belong to the ssa
// layer. An IRC run is Figure 4 passes (conservative coalescing) and
// then one worklist round, which belongs to the irc layer. ssa.ms and
// irc.ms are the two families' whole Allocate time.
func allocate(rec *recorder, l *layers, op, parent int32, prog *regalloc.Program, unit string, opt regalloc.Options) (*regalloc.Result, error) {
	if rec == nil {
		return prog.Allocate(unit, opt)
	}
	sink := &eventSink{}
	opt.Observer = sink
	t0 := time.Now()
	res, err := prog.Allocate(unit, opt)
	t1 := time.Now()
	id := rec.add(op, parent, "alloc.Allocate", t0, t1)
	l.addMS("alloc.allocate_ms", t1.Sub(t0))
	switch opt.Heuristic {
	case color.SSA:
		l.addMS("ssa.ms", t1.Sub(t0))
	case color.IRC:
		l.addMS("irc.ms", t1.Sub(t0))
	}
	if err != nil {
		return nil, err
	}

	ircPass := -1
	for _, e := range sink.events {
		if e.Kind == obs.KindCounter && e.Name == "irc.moves_coalesced" {
			ircPass = e.Pass
		}
	}
	// A pass's coalesce span ends before its build span does, so build
	// spans are recorded first to give coalesce spans their parent.
	buildSpan := map[int]int32{}
	for _, e := range sink.events {
		if e.Kind == obs.KindSpanEnd && e.Phase == obs.PhaseBuild {
			buildSpan[e.Pass] = rec.add(op, id, phaseName(opt, e, ircPass), e.Time.Add(-e.Dur), e.Time)
		}
	}
	var phases time.Duration
	for _, e := range sink.events {
		switch e.Kind {
		case obs.KindSpanEnd:
			switch e.Phase {
			case obs.PhaseBuild:
			case obs.PhaseCoalesce:
				rec.add(op, buildSpan[e.Pass], phaseName(opt, e, ircPass), e.Time.Add(-e.Dur), e.Time)
			default:
				rec.add(op, id, phaseName(opt, e, ircPass), e.Time.Add(-e.Dur), e.Time)
			}
			if e.Phase != obs.PhaseCoalesce {
				phases += e.Dur
			}
			switch {
			case opt.Heuristic == color.SSA, e.Pass == ircPass:
				// Counted in the family's total.
			case e.Phase == obs.PhaseBuild:
				l.addMS("build.noncoalesce_ms", e.Dur)
			case e.Phase == obs.PhaseCoalesce:
				l.addMS("coalesce.ms", e.Dur)
				l.addMS("build.noncoalesce_ms", -e.Dur)
			case e.Phase == obs.PhaseSimplify:
				l.addMS("color.simplify_ms", e.Dur)
			case e.Phase == obs.PhaseColor:
				l.addMS("color.select_ms", e.Dur)
			case e.Phase == obs.PhaseSpill:
				l.addMS("spill.insert_ms", e.Dur)
			}
		case obs.KindCounter:
			if e.Name == "ssa.lower_ns" {
				l.addMS("ssa.lower_ms", time.Duration(e.Value))
			} else if name, ok := counterLayer[e.Name]; ok {
				l.addCount(name, float64(e.Value))
			}
		case obs.KindSpillDecision:
			l.addCount("color.spill_candidates", 1)
		case obs.KindColorReuse:
			l.addCount("color.optimistic_rescues", 1)
		}
	}
	var build time.Duration
	for _, p := range res.Passes {
		build += p.Build
	}
	l.addMS("alloc.build_ms", build)
	l.addMS("alloc.unattributed_ms", t1.Sub(t0)-phases)
	l.addCount("alloc.passes", float64(len(res.Passes)))
	return res, nil
}

// phaseName names a phase span by the layer that owns it.
func phaseName(opt regalloc.Options, e regalloc.TraceEvent, ircPass int) string {
	switch {
	case opt.Heuristic == color.SSA:
		return "ssa." + e.Phase.String()
	case e.Pass == ircPass:
		return "irc." + e.Phase.String()
	}
	return phaseLayer[e.Phase]
}

// allocLayerMS and allocLayerCounts list the per-layer metrics that
// in-process spans and counters feed; finish reports each, 0 where the
// layer never ran.
var allocLayerMS = []string{
	"alloc.allocate_ms", "alloc.build_ms", "alloc.unattributed_ms", "coalesce.ms",
	"build.noncoalesce_ms", "color.simplify_ms", "color.select_ms", "spill.insert_ms",
	"irc.ms", "ssa.ms", "ssa.lower_ms",
	"parser.parse_ms", "sem.check_ms", "irgen.gen_ms", "opt.run_ms", "asm.lower_ms",
}

var allocLayerCounts = []string{
	"alloc.passes", "coalesce.rounds", "coalesce.examined", "dataflow.liveness_runs",
	"ig.nodes", "ig.edges", "ig.edge_inserts", "color.scan_steps",
	"color.spill_candidates", "color.optimistic_rescues", "spill.ranges", "spill.loads",
	"spill.stores", "irc.moves_coalesced", "irc.moves_constrained", "irc.moves_frozen",
	"ssa.prespill_rounds", "ssa.phis", "ssa.copies", "frontend.ir_instrs",
}

// finish turns the accumulated layers into per-layer metrics: times as
// milliseconds per traced op, counters per round.
func (l *layers) finish(r *run, ops int) {
	for _, name := range allocLayerMS {
		v := 0.0
		if ops > 0 {
			v = l.ms[name] / float64(ops)
		}
		r.values[name] = v
	}
	for _, name := range allocLayerCounts {
		r.values[name] = l.counts[name]
	}
	r.values["coalesce.merged_per_examined"] = ratio(l.counts["coalesce.merged"], l.counts["coalesce.examined"])
	r.values["color.rescued_per_candidate"] = ratio(l.counts["color.optimistic_rescues"], l.counts["color.spill_candidates"])
	r.report["layer_bases"] = map[string]float64{
		"coalesce.merged_per_examined": l.counts["coalesce.examined"],
		"color.rescued_per_candidate":  l.counts["color.spill_candidates"],
		"traced_ops":                   float64(ops),
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// zeroService reports the service-only layers as idle.
func zeroService(r *run) {
	for _, name := range []string{
		"allocd.hit_ms_p50", "allocd.hit_ms_p99", "allocd.miss_ms_p50", "allocd.miss_ms_p99",
		"allocd.server_alloc_ms", "allocd.miss_overhead_ms", "rescache.hit_frac",
		"rescache.lookups", "rescache.evictions", "cachekey.key_ms", "loadgen.lag_ms_p99",
	} {
		r.values[name] = 0
	}
}
