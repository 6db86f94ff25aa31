package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"time"

	"regalloc"
	"regalloc/internal/alloc"
	"regalloc/internal/ir"
)

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 9

// opResult is one timed op of a closed-loop workload.
type opResult struct {
	d      time.Duration
	heap   uint64 // bytes allocated during the op
	units  int    // routines allocated
	failed bool   // the op function has already counted the failure
}

// loop collects a closed-loop workload's raw samples.
type loop struct {
	r       *run
	latMS   []float64 // successful ops only
	ops     int
	units   int
	heap    uint64
	rounds  int
	roundMS []float64    // summed op time per round
	rssMB   []float64    // peak RSS of each round
	trace   [][4]float64 // round, position in round, job, ms: every op, for the report
	err     error        // reading the peak RSS failed
}

func (lp *loop) record(o opResult) {
	lp.r.attempted++
	lp.ops++
	lp.heap += o.heap
	if !o.failed {
		lp.latMS = append(lp.latMS, float64(o.d)/1e6)
		lp.units += o.units
	}
}

// runRounds runs whole rounds of n jobs, each round in a fresh seeded
// order, by a single caller, until seconds have passed; at least one
// round always runs.
func (lp *loop) runRounds(seconds float64, n int, rng *rand.Rand, op func(round, job int) opResult) {
	start := time.Now()
	for first := true; first || time.Since(start).Seconds() < seconds; first = false {
		// Return freed memory first, so a round's peak is what the
		// round itself needed.
		debug.FreeOSMemory()
		if err := resetHWM("self"); err != nil {
			lp.err = err
		}
		var sum time.Duration
		for pos, k := range rng.Perm(n) {
			o := op(lp.rounds, k)
			sum += o.d
			lp.record(o)
			lp.trace = append(lp.trace, [4]float64{float64(lp.rounds), float64(pos), float64(k), float64(o.d) / 1e6})
		}
		lp.rounds++
		lp.roundMS = append(lp.roundMS, float64(sum)/1e6)
		rss, err := vmHWM("self")
		if err != nil {
			lp.err = err
		}
		lp.rssMB = append(lp.rssMB, rss)
	}
}

// timed runs f once and measures its wall time and heap allocation.
// It does not collect first: the collections the op's own garbage
// causes are part of its cost. The MemStats reads stop the world, so
// they stay outside the timed interval.
func timed(f func() error) (time.Duration, uint64, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return d, m1.TotalAlloc - m0.TotalAlloc, err
}

// endToEnd fills the closed-loop end-to-end metrics. spillCost is one
// round's summed spill cost.
func (lp *loop) endToEnd(tailPct, spillCost float64) error {
	if lp.err != nil {
		return fmt.Errorf("peak RSS: %w", lp.err)
	}
	r := lp.r
	// Throughput comes from the median round, so that a stall of the
	// host during a few rounds does not decide it. Every round runs the
	// same ops.
	secs := medianOf(lp.roundMS) / 1000 * float64(lp.rounds)
	p50, p50s := blockStat(lp.latMS, 50)
	tail, tails := blockStat(lp.latMS, tailPct)
	lat := summarize(lp.latMS, tailPct)
	r.values["units_per_s"] = float64(lp.units) / secs
	r.values["op_ms_p50"] = p50
	r.values["op_ms_tail"] = tail
	r.report["op_ms_blocks"] = map[string][]float64{"p50": p50s, "tail": tails}
	r.values["heap_mb_per_unit"] = float64(lp.heap) / 1e6 / float64(max(lp.units, 1))
	r.values["spill_cost"] = spillCost
	r.values["ok_frac"] = 1 - float64(r.failed)/float64(r.attempted)
	r.values["max_rps"] = float64(lp.ops) / secs
	r.values["peak_rss_mb"] = medianOf(lp.rssMB)
	r.report["op_ms"] = lat
	r.report["round_ms"] = summarize(append([]float64(nil), lp.roundMS...), 100)
	r.report["rounds"] = lp.rounds
	r.report["ops"] = lp.ops
	r.report["units"] = lp.units
	r.report["op_samples"] = lp.trace
	return nil
}

// tracedRounds is the traced run of a closed-loop workload: one traced
// round whose work counters l keeps, then an untraced and a traced
// round in turn until seconds have passed, at least one pair. Taking
// turns puts both sides of trace.overhead_pct in the same stretch of
// the host's speed, which drifts over minutes by more than tracing
// costs.
func tracedRounds(r *run, seconds float64, n int, rng *rand.Rand, l *layers, plain, traced func(round, job int) opResult) *loop {
	base, tr := &loop{r: r}, &loop{r: r}
	l.counting = true
	tr.runRounds(0, n, rng, traced)
	l.counting = false
	start := time.Now()
	for first := true; first || time.Since(start).Seconds() < seconds; first = false {
		base.runRounds(0, n, rng, plain)
		tr.runRounds(0, n, rng, traced)
	}
	// The counting round is left out of the comparison: it is the
	// first traced round, and it does more bookkeeping.
	r.values["trace.overhead_pct"] = overheadPct(medianOf(tr.roundMS[1:]), medianOf(base.roundMS))
	r.report["overhead_round_ms"] = map[string][]float64{"untraced": base.roundMS, "traced": tr.roundMS[1:]}
	return tr
}

// overheadPct is the traced run's time against the untraced run's.
func overheadPct(traced, untraced float64) float64 {
	if untraced == 0 {
		return 0
	}
	return (traced/untraced - 1) * 100
}

// verify checks an allocation independently of the allocator:
// every register colored within its class, no two simultaneously live
// registers sharing a color, and the machine model's constraints when
// one is set.
func verify(res *regalloc.Result) error {
	if m := res.Options.Machine; m != nil {
		return alloc.VerifyAssignmentMachine(res.Func, res.Colors, m)
	}
	return alloc.VerifyAssignment(res.Func, res.Colors)
}

// copiesLeft counts the copies in allocated code whose two sides got
// different colors: the moves that survive as machine instructions.
func copiesLeft(res *regalloc.Result) int {
	n := 0
	for _, b := range res.Func.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.IsMove() && in.Dst != ir.NoReg && in.A != ir.NoReg &&
				int(in.Dst) < len(res.Colors) && int(in.A) < len(res.Colors) &&
				res.Colors[in.Dst] != res.Colors[in.A] {
				n++
			}
		}
	}
	return n
}
