// benchjson implements bench -bench-json: a machine-readable phase
// benchmark over the paper's figure-7 routines and the standalone
// graph-coloring stress generators, written as one JSON document so
// CI can archive it and successive PRs can be diffed.
//
// Schema history (readers of older reports keep working — every bump
// is additive, and the history is repeated in the report's
// schema_history field so an archived file explains itself):
//
//	regalloc-bench/3  runs, graphs, pcolor, build_improvement_pct
//	regalloc-bench/4  adds phase_latency and run_latency: p50/p95/p99
//	                  (plus mean/max/count) over EVERY rep of every
//	                  figure-7 allocation, computed from the obs
//	                  registry's fixed-bucket histograms — the "runs"
//	                  entries remain best-of-reps and are unchanged
//	regalloc-bench/5  adds portfolio: one race per figure-7 routine
//	                  over the default strategy set (winner, win
//	                  margin, and the per-candidate outcome table);
//	                  all /4 fields unchanged
//	regalloc-bench/6  adds loadtest: service-level latency
//	                  percentiles, error rate, and cache hit rate,
//	                  emitted by cmd/allocload against a running
//	                  allocd (cmd/bench's own reports carry every /5
//	                  field and omit the section); all /5 fields
//	                  unchanged
//	regalloc-bench/7  adds scale (the 10^5+-node tier: power-law and
//	                  mesh topologies under the speculative and
//	                  Jones–Plassmann engines, per worker count) and,
//	                  in allocload reports, loadtest.error_latency
//	                  (transport-failure latency, tracked apart from
//	                  the SLO-facing success histogram); all /6 fields
//	                  unchanged
//	regalloc-bench/8  adds ssa (the SSA-form chordal allocator over
//	                  every figure-5 routine at (16,8) and (8,4):
//	                  construction shape, post-spill MAXLIVE, spill
//	                  totals, and the Chaitin/Briggs costs on the same
//	                  unit); all /7 fields unchanged
//	regalloc-bench/9  adds, in allocload reports, the trace linkage:
//	                  loadtest.slow_trace_ids and error_trace_ids (the
//	                  trace IDs of the slowest and errored requests,
//	                  the lookup keys into allocd's flight recorder,
//	                  access log, and /metrics exemplars) and
//	                  loadtest.traces (their flight-recorder records,
//	                  fetched back after the run); all /8 fields
//	                  unchanged
//	regalloc-bench/10 adds irc (iterated register coalescing vs the
//	                  Briggs conservative pre-pass: surviving register
//	                  copies per figure-5 routine, with both spill
//	                  costs) and irc_eliminated_pct (the move-heavy
//	                  aggregate); all /9 fields unchanged
//	regalloc-bench/11 drops build_improvement_pct and the workers=4
//	                  runs: a single unit always allocates on one
//	                  goroutine, so runs holds one best-of-reps entry
//	                  per figure-7 routine
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"regalloc"
	"regalloc/internal/color"
	"regalloc/internal/experiments"
	"regalloc/internal/fsutil"
	"regalloc/internal/graphgen"
	"regalloc/internal/ig"
	"regalloc/internal/ir"
	"regalloc/internal/obs"
	"regalloc/internal/pcolor"
	"regalloc/internal/workloads"
)

// benchPass is one trip around the Figure 4 cycle, nanoseconds.
type benchPass struct {
	BuildNS    int64 `json:"build_ns"`
	SimplifyNS int64 `json:"simplify_ns"`
	ColorNS    int64 `json:"color_ns"`
	SpillNS    int64 `json:"spill_ns"`
	Spilled    int   `json:"spilled"`
}

// benchRun is the per-pass timing of one routine (best-of-reps to
// damp scheduler noise).
type benchRun struct {
	Routine     string      `json:"routine"`
	Passes      []benchPass `json:"passes"`
	BuildNS     int64       `json:"build_ns_total"`
	TotalNS     int64       `json:"total_ns"`
	LiveRanges  int         `json:"live_ranges"`
	Spilled     int         `json:"spilled_total"`
	PassesCount int         `json:"pass_count"`
}

// benchGraph times simplify+select on a generated stress graph.
type benchGraph struct {
	Name      string `json:"name"`
	Heuristic string `json:"heuristic"`
	Nodes     int    `json:"nodes"`
	Edges     int    `json:"edges"`
	Spilled   int    `json:"spilled"`
	NS        int64  `json:"ns"`
}

// benchPColor compares the speculative parallel colorer against the
// sequential smallest-last heuristic on one large stress graph.
type benchPColor struct {
	Name      string  `json:"name"`
	Nodes     int     `json:"nodes"`
	Edges     int     `json:"edges"`
	Workers   int     `json:"workers"`
	SeqNS     int64   `json:"seq_ns"`
	ParNS     int64   `json:"par_ns"`
	Speedup   float64 `json:"speedup"`
	Rounds    int     `json:"rounds"`
	Conflicts int     `json:"conflicts"`
	SeqColors int     `json:"seq_colors"`
	ParColors int     `json:"par_colors"`
}

// benchScale is one cell of the scale tier (new in regalloc-bench/7):
// parallel coloring wall time on a 10^5-node graph, per topology,
// engine, and worker count.
type benchScale struct {
	Topology  string `json:"topology"`
	Nodes     int    `json:"nodes"`
	Edges     int    `json:"edges"`
	Algo      string `json:"algo"`
	Workers   int    `json:"workers"`
	GenNS     int64  `json:"gen_ns"`
	ColorNS   int64  `json:"color_ns"`
	Rounds    int    `json:"rounds"`
	Conflicts int    `json:"conflicts"`
	Colors    int    `json:"colors"`
}

// benchSSA is one routine under one register-file size in the
// SSA-form chordal allocator study (new in regalloc-bench/8). The
// spill/cost columns are deterministic — they diff cleanly across
// PRs; only durations elsewhere in the report carry machine noise.
type benchSSA struct {
	Program string `json:"program"`
	Routine string `json:"routine"`
	KInt    int    `json:"k_int"`
	KFloat  int    `json:"k_float"`
	// Irreducible marks units whose operand pressure no spilling can
	// fit at this K; all other columns are zero for such rows.
	Irreducible  bool  `json:"irreducible,omitempty"`
	Phis         int   `json:"phis"`
	CopyProps    int   `json:"copy_props"`
	SplitEdges   int   `json:"split_edges"`
	MaxLiveInt   int   `json:"maxlive_int"`
	MaxLiveFloat int   `json:"maxlive_float"`
	Rounds       int   `json:"rounds"`
	Spilled      int   `json:"spilled"`
	CostMilli    int64 `json:"cost_milli"`
	Copies       int   `json:"phi_copies"`
	CycleBreaks  int   `json:"cycle_breaks"`
	SlotBounces  int   `json:"slot_bounces"`
	ChaitinCost  int64 `json:"chaitin_cost_milli"`
	BriggsCost   int64 `json:"briggs_cost_milli"`
}

// benchIRC is one routine of the iterated-register-coalescing study
// (new in regalloc-bench/10): surviving register copies under Briggs
// conservative coalescing versus George-Appel IRC, with both total
// spill costs (equal by construction of the decoupled IRC design).
// Fully deterministic, so it diffs cleanly across PRs.
type benchIRC struct {
	Program     string `json:"program"`
	Routine     string `json:"routine"`
	BriggsMoves int    `json:"briggs_moves"`
	IRCMoves    int    `json:"irc_moves"`
	BriggsCost  int64  `json:"briggs_cost_milli"`
	IRCCost     int64  `json:"irc_cost_milli"`
}

// benchPortfolioCandidate is one strategy's outcome in one routine's
// portfolio race.
type benchPortfolioCandidate struct {
	Name      string `json:"name"`
	Status    string `json:"status"`
	Spills    int    `json:"spills"`
	CostMilli int64  `json:"cost_milli"`
	NS        int64  `json:"ns"`
}

// benchPortfolio is one routine's race over the default strategy
// portfolio. New in regalloc-bench/5.
type benchPortfolio struct {
	Routine     string                    `json:"routine"`
	Mode        string                    `json:"mode"`
	Winner      string                    `json:"winner"`
	Spills      int                       `json:"spills"`
	CostMilli   int64                     `json:"cost_milli"`
	MarginMilli int64                     `json:"win_margin_milli"`
	Candidates  []benchPortfolioCandidate `json:"candidates"`
}

// benchQuantiles summarizes one obs.LatencyHistogram: percentile
// estimates by linear interpolation within the 1-2-5 buckets, clamped
// to the observed maximum.
type benchQuantiles struct {
	Count  int64 `json:"count"`
	P50NS  int64 `json:"p50_ns"`
	P95NS  int64 `json:"p95_ns"`
	P99NS  int64 `json:"p99_ns"`
	MeanNS int64 `json:"mean_ns"`
	MaxNS  int64 `json:"max_ns"`
}

func quantilesOf(h obs.LatencyHistogram) benchQuantiles {
	return benchQuantiles{
		Count:  h.Count,
		P50NS:  h.Quantile(0.50).Nanoseconds(),
		P95NS:  h.Quantile(0.95).Nanoseconds(),
		P99NS:  h.Quantile(0.99).Nanoseconds(),
		MeanNS: h.Mean().Nanoseconds(),
		MaxNS:  h.MaxNS,
	}
}

type benchReport struct {
	Schema        string        `json:"schema"`
	SchemaHistory []string      `json:"schema_history"`
	GoMaxProcs    int           `json:"gomaxprocs"`
	NumCPU        int           `json:"num_cpu"`
	Reps          int           `json:"reps"`
	Runs          []benchRun    `json:"runs"`
	Graphs        []benchGraph  `json:"graphs"`
	PColor        []benchPColor `json:"pcolor"`
	// PhaseLatency aggregates every rep of every figure-7 allocation
	// (not just the best-of-reps kept in Runs) per Figure 4 phase;
	// RunLatency does the same for whole-allocation wall time. New in
	// regalloc-bench/4.
	PhaseLatency map[string]benchQuantiles `json:"phase_latency"`
	RunLatency   benchQuantiles            `json:"run_latency"`
	// Portfolio races the default strategy set once per figure-7
	// routine: deterministic winner by (milli spill cost, spills,
	// index). New in regalloc-bench/5.
	Portfolio []benchPortfolio `json:"portfolio"`
	// Scale is the 10^5-node tier: CSR-backed graphs at the size
	// where per-node adjacency vectors used to dominate build time.
	// New in regalloc-bench/7.
	Scale []benchScale `json:"scale"`
	// SSA is the SSA-form chordal allocator study: every figure-5
	// routine at (16,8) and (8,4), with the Figure 4 allocators'
	// costs on the same units for comparison. New in
	// regalloc-bench/8.
	SSA []benchSSA `json:"ssa"`
	// IRC is the iterated-register-coalescing study: per-routine
	// surviving copies under the Briggs conservative pre-pass versus
	// IRC's retested worklist, plus the move-heavy aggregate. New in
	// regalloc-bench/10.
	IRC []benchIRC `json:"irc"`
	// IRCEliminatedPct is the share of copies IRC removed from the
	// move-heavy units (>= 4 surviving the pre-pass), in percent.
	IRCEliminatedPct float64 `json:"irc_eliminated_pct"`
	Note             string  `json:"note"`
}

// figure7Routines is the paper's four large routines, the workloads
// whose Build phase dominates allocation time.
func figure7Routines() (map[string]*regalloc.Program, []struct{ program, routine string }, error) {
	wanted := []struct{ program, routine string }{
		{"CEDETA", "DQRDC"},
		{"SVD", "SVD"},
		{"CEDETA", "GRADNT"},
		{"CEDETA", "HSSIAN"},
	}
	compiled := make(map[string]*regalloc.Program)
	for _, w := range workloads.All() {
		if w.Program == "CEDETA" || w.Program == "SVD" {
			p, err := regalloc.Compile(w.Source)
			if err != nil {
				return nil, nil, fmt.Errorf("compile %s: %w", w.Program, err)
			}
			compiled[w.Program] = p
		}
	}
	return compiled, wanted, nil
}

// runBenchJSON writes the benchmark report to path and returns any
// error (the caller exits nonzero on failure, so a CI job that
// uploads the artifact fails loudly instead of archiving nothing).
func runBenchJSON(path string, reps int) error {
	if reps <= 0 {
		reps = 3
	}
	compiled, wanted, err := figure7Routines()
	if err != nil {
		return err
	}
	report := &benchReport{
		Schema: "regalloc-bench/11",
		SchemaHistory: []string{
			"regalloc-bench/3: runs, graphs, pcolor, build_improvement_pct",
			"regalloc-bench/4: adds phase_latency + run_latency (p50/p95/p99 over every rep); all /3 fields unchanged",
			"regalloc-bench/5: adds portfolio (one race per figure-7 routine: winner, margin, per-candidate table); all /4 fields unchanged",
			"regalloc-bench/6: adds loadtest (latency percentiles, error rate, cache hit rate from cmd/allocload against a running allocd); all /5 fields unchanged",
			"regalloc-bench/7: adds scale (10^5+-node power-law/mesh coloring per engine and worker count) and loadtest.error_latency in allocload reports; all /6 fields unchanged",
			"regalloc-bench/8: adds ssa (SSA-form chordal allocator over every figure-5 routine at (16,8) and (8,4), with Chaitin/Briggs costs on the same units); all /7 fields unchanged",
			"regalloc-bench/9: adds loadtest.slow_trace_ids/error_trace_ids/traces (trace IDs of the slowest and errored requests, with their flight-recorder records fetched from allocd's /debug/requests); all /8 fields unchanged",
			"regalloc-bench/10: adds irc (iterated register coalescing vs the Briggs conservative pre-pass: surviving copies per figure-5 routine) and irc_eliminated_pct; all /9 fields unchanged",
			"regalloc-bench/11: drops build_improvement_pct and the workers=4 runs (a unit allocates on one goroutine); runs has one entry per figure-7 routine",
		},
		GoMaxProcs:   runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
		Reps:         reps,
		PhaseLatency: map[string]benchQuantiles{},
		Note: "times are best-of-reps wall clock; " +
			"phase_latency/run_latency aggregate every rep, not the best",
	}

	// Every rep of every allocation below is also recorded here, so
	// the /4 latency quantiles see the full distribution rather than
	// the minimum that Runs keeps.
	reg := regalloc.NewRegistry()

	for _, s := range wanted {
		prog := compiled[s.program]
		var best benchRun
		for rep := 0; rep < reps; rep++ {
			opt := regalloc.DefaultOptions()
			opt.Heuristic = regalloc.Briggs
			res, err := prog.Allocate(s.routine, opt)
			if err != nil {
				return fmt.Errorf("%s: %w", s.routine, err)
			}
			reg.Record(regalloc.Summarize(s.routine, res))
			run := benchRun{Routine: s.routine}
			for _, p := range res.Passes {
				run.Passes = append(run.Passes, benchPass{
					BuildNS:    p.Build.Nanoseconds(),
					SimplifyNS: p.Simplify.Nanoseconds(),
					ColorNS:    p.Color.Nanoseconds(),
					SpillNS:    p.Spill.Nanoseconds(),
					Spilled:    p.Spilled,
				})
				run.BuildNS += p.Build.Nanoseconds()
			}
			run.TotalNS = res.TotalTime().Nanoseconds()
			run.LiveRanges = res.LiveRanges()
			run.Spilled = res.TotalSpilled()
			run.PassesCount = len(res.Passes)
			if best.TotalNS == 0 || run.BuildNS < best.BuildNS {
				best = run
			}
		}
		report.Runs = append(report.Runs, best)
	}

	// Standalone coloring on generated graphs: isolates the
	// simplify/select machinery from the compiler front half.
	type gen struct {
		name  string
		g     *ig.Graph
		costs []float64
	}
	var gens []gen
	{
		g, costs := graphgen.Random(400, 0.08, 11)
		gens = append(gens, gen{"random-400-0.08", g, costs})
	}
	{
		g, costs := graphgen.SVDLike(60, 40, 8, 12, 3, 7)
		gens = append(gens, gen{"svdlike-60x40", g, costs})
	}
	kf := func(ir.Class) int { return 8 }
	for _, ge := range gens {
		for _, h := range []color.Heuristic{color.Chaitin, color.Briggs, color.MatulaBeck} {
			var bestNS int64
			var spilled int
			for rep := 0; rep < reps; rep++ {
				t0 := time.Now()
				sr := color.Simplify(ge.g, ge.costs, kf, h, color.CostOverDegree)
				var sp []int32
				if h == color.Chaitin && len(sr.SpillMarked) > 0 {
					sp = sr.SpillMarked
				} else {
					_, sp = color.Select(ge.g, sr.Stack, kf, h != color.Chaitin)
				}
				ns := time.Since(t0).Nanoseconds()
				if bestNS == 0 || ns < bestNS {
					bestNS = ns
				}
				spilled = len(sp)
			}
			report.Graphs = append(report.Graphs, benchGraph{
				Name:      ge.name,
				Heuristic: h.String(),
				Nodes:     ge.g.NumNodes(),
				Edges:     ge.g.NumEdges(),
				Spilled:   spilled,
				NS:        bestNS,
			})
		}
	}

	// Speculative parallel coloring on large random graphs: the
	// sequential side is the same smallest-last machinery timed
	// above, the parallel side the Rokos-style engine at 1 worker
	// (scheme overhead) and at GOMAXPROCS (the speedup claim: on a
	// host with GOMAXPROCS >= 4 the latter beats sequential wall
	// clock on Random(n >= 20000)).
	for _, spec := range []struct {
		name string
		n    int
		p    float64
		seed uint64
	}{
		{"random-20000-0.0012", 20000, 0.0012, 21},
		{"random-32000-0.0008", 32000, 0.0008, 22},
	} {
		g, _ := graphgen.Random(spec.n, spec.p, spec.seed)
		var seqNS int64
		var seq *pcolor.Stats
		for rep := 0; rep < reps; rep++ {
			t0 := time.Now()
			_, st := pcolor.Sequential(g)
			if ns := time.Since(t0).Nanoseconds(); seqNS == 0 || ns < seqNS {
				seqNS = ns
			}
			seq = st
		}
		workerCounts := []int{1}
		if gmp := runtime.GOMAXPROCS(0); gmp > 1 {
			workerCounts = append(workerCounts, gmp)
		}
		for _, workers := range workerCounts {
			var parNS int64
			var st *pcolor.Stats
			var colors []int16
			for rep := 0; rep < reps; rep++ {
				t0 := time.Now()
				colors, st = pcolor.Color(g, pcolor.Options{Workers: workers, Seed: 1})
				if ns := time.Since(t0).Nanoseconds(); parNS == 0 || ns < parNS {
					parNS = ns
				}
			}
			if err := color.Verify(g, colors, pcolor.KFor(st)); err != nil {
				return fmt.Errorf("pcolor %s workers=%d: %w", spec.name, workers, err)
			}
			report.PColor = append(report.PColor, benchPColor{
				Name:      spec.name,
				Nodes:     g.NumNodes(),
				Edges:     g.NumEdges(),
				Workers:   st.Workers,
				SeqNS:     seqNS,
				ParNS:     parNS,
				Speedup:   float64(seqNS) / float64(parNS),
				Rounds:    st.Rounds,
				Conflicts: st.Conflicts,
				SeqColors: seq.ColorsInt,
				ParColors: st.ColorsInt,
			})
		}
	}

	// Portfolio races over the figure-7 routines (new in /5): the
	// winner is deterministic — (milli spill cost, spill count,
	// candidate index) — so the winner/cost columns diff cleanly
	// across PRs; only the ns columns carry machine noise.
	cands := regalloc.DefaultPortfolio(regalloc.DefaultOptions())
	for _, s := range wanted {
		pr, err := compiled[s.program].AllocatePortfolio(context.Background(), s.routine, cands, regalloc.PortfolioConfig{})
		if err != nil {
			return fmt.Errorf("portfolio %s: %w", s.routine, err)
		}
		reg.Record(regalloc.SummarizePortfolio(s.routine, pr))
		win := pr.Outcomes[pr.Winner]
		bp := benchPortfolio{
			Routine:     s.routine,
			Mode:        pr.Mode.String(),
			Winner:      win.Name,
			Spills:      win.Spills,
			CostMilli:   win.SpillCostMilli,
			MarginMilli: pr.WinMarginMilli,
		}
		for _, o := range pr.Outcomes {
			bp.Candidates = append(bp.Candidates, benchPortfolioCandidate{
				Name:      o.Name,
				Status:    o.Status.String(),
				Spills:    o.Spills,
				CostMilli: o.SpillCostMilli,
				NS:        o.Duration.Nanoseconds(),
			})
		}
		report.Portfolio = append(report.Portfolio, bp)
	}

	// Scale tier (new in /7): 10^5-node power-law and mesh graphs
	// under both parallel engines. The study sizes itself; CI's
	// scale-smoke job runs the same code standalone with a wall-clock
	// budget.
	scale, err := experiments.ScaleStudy(100_000)
	if err != nil {
		return err
	}
	for _, row := range scale.Rows {
		report.Scale = append(report.Scale, benchScale{
			Topology:  row.Topology,
			Nodes:     row.Nodes,
			Edges:     row.Edges,
			Algo:      row.Algo,
			Workers:   row.Workers,
			GenNS:     row.GenNS,
			ColorNS:   row.ColorNS,
			Rounds:    row.Rounds,
			Conflicts: row.Conflicts,
			Colors:    row.Colors,
		})
	}

	// SSA-form chordal allocator study (new in /8). Deterministic
	// like the portfolio section: spill and cost columns diff cleanly
	// across PRs.
	ssaStudy, err := experiments.SSAStudy()
	if err != nil {
		return err
	}
	for _, row := range ssaStudy.Rows {
		report.SSA = append(report.SSA, benchSSA{
			Program:      row.Program,
			Routine:      row.Routine,
			KInt:         row.KInt,
			KFloat:       row.KFloat,
			Irreducible:  row.Irreducible,
			Phis:         row.Phis,
			CopyProps:    row.CopyProps,
			SplitEdges:   row.SplitEdges,
			MaxLiveInt:   row.MaxLiveInt,
			MaxLiveFloat: row.MaxLiveFloat,
			Rounds:       row.Rounds,
			Spilled:      row.Spilled,
			CostMilli:    row.CostMilli,
			Copies:       row.Copies,
			CycleBreaks:  row.CycleBreaks,
			SlotBounces:  row.SlotBounces,
			ChaitinCost:  row.ChaitinCostMilli,
			BriggsCost:   row.BriggsCostMilli,
		})
	}

	// Iterated-register-coalescing study (new in /10). Deterministic:
	// move and cost columns diff cleanly across PRs.
	ircStudy, err := experiments.IRCStudy()
	if err != nil {
		return err
	}
	for _, row := range ircStudy.Rows {
		report.IRC = append(report.IRC, benchIRC{
			Program:     row.Program,
			Routine:     row.Routine,
			BriggsMoves: row.BriggsMoves,
			IRCMoves:    row.IRCMoves,
			BriggsCost:  row.BriggsCostMilli,
			IRCCost:     row.IRCCostMilli,
		})
	}
	report.IRCEliminatedPct = ircStudy.EliminatedPct()

	snap := reg.Snapshot()
	for p := 0; p < obs.NumPhases; p++ {
		if h := snap.Phase[p]; h.Count > 0 {
			report.PhaseLatency[obs.Phase(p).String()] = quantilesOf(h)
		}
	}
	report.RunLatency = quantilesOf(snap.Total)

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		f.Close()
		return err
	}
	// A dropped fsync/close error here is exactly the
	// silent-truncation bug the -trace path had: the OS may only
	// report a full disk at sync or close.
	return fsutil.SyncClose(f)
}
