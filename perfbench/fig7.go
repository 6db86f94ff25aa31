package main

import (
	"fmt"
	"math/rand"
	"time"

	"regalloc"
	"regalloc/internal/asm"
	"regalloc/internal/workloads"
)

// fig7TailPct is fig7's op_ms_tail percentile: a 35 s run makes about
// 1600 ops, 400 a block, so p95 keeps at least 10 samples beyond it in
// a block and p98 would not.
const fig7TailPct = 95

// fig7Job is one Allocate of the paper's Figure 7 set.
type fig7Job struct {
	name    string
	prog    *regalloc.Program
	routine string
	opt     regalloc.Options
}

// fig7Outcome is what one round must reproduce exactly for a job.
type fig7Outcome struct {
	spillCost float64
	copies    int
}

// fig7Setup compiles the two programs that hold DQRDC, SVD, GRADNT and
// HSSIAN and builds the 4 routines x {chaitin, briggs} jobs at the
// paper's 16+8 registers, then allocates each once untimed so pools
// and lazy state are warm before the first timed op.
func fig7Setup() ([]fig7Job, error) {
	progs := map[string]*regalloc.Program{}
	for _, name := range []string{"CEDETA", "SVD"} {
		w, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		p, err := regalloc.Compile(w.Source)
		if err != nil {
			return nil, fmt.Errorf("compile %s: %w", name, err)
		}
		progs[name] = p
	}
	var jobs []fig7Job
	for _, s := range []struct{ program, routine string }{
		{"CEDETA", "DQRDC"}, {"SVD", "SVD"}, {"CEDETA", "GRADNT"}, {"CEDETA", "HSSIAN"},
	} {
		for _, h := range []struct {
			name string
			h    regalloc.Heuristic
		}{{"chaitin", regalloc.Chaitin}, {"briggs", regalloc.Briggs}} {
			opt := regalloc.DefaultOptions()
			opt.Heuristic = h.h
			jobs = append(jobs, fig7Job{name: s.routine + "/" + h.name, prog: progs[s.program], routine: s.routine, opt: opt})
		}
	}
	for _, j := range jobs {
		j.prog.Allocate(j.routine, j.opt) // warm-up only; the timed loop counts failures
	}
	return jobs, nil
}

func runFig7(cfg config) (*run, error) {
	r := newRun()
	var jobs []fig7Job
	var setups []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		js, err := fig7Setup()
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		jobs = js
	}
	r.values["setup_s"] = medianOf(setups)
	r.report["setup_s_reps"] = setups

	rng := rand.New(rand.NewSource(int64(cfg.seed)))
	first := make([]*fig7Outcome, len(jobs))
	codeWords, copies := 0, 0
	spillCost := 0.0
	op := func(rec *recorder, l *layers) func(round, k int) opResult {
		return func(round, k int) opResult {
			j := jobs[k]
			var res *regalloc.Result
			opID := rec.newOp()
			d, heap, err := timed(func() error {
				var err error
				res, err = allocate(rec, l, opID, 0, j.prog, j.routine, j.opt)
				return err
			})
			o := opResult{d: d, heap: heap, units: 1}
			if err != nil {
				r.fail("%s: %v", j.name, err)
				o.failed = true
				return o
			}
			if err := verify(res); err != nil {
				r.wrong("%s: %v", j.name, err)
				o.failed = true
				return o
			}
			got := fig7Outcome{spillCost: res.TotalSpillCost(), copies: copiesLeft(res)}
			if first[k] == nil {
				first[k] = &got
				spillCost += got.spillCost
				copies += got.copies
				af, err := asm.Lower(res.Func, res.Colors, regalloc.RTPC())
				if err != nil {
					r.fail("%s: lower: %v", j.name, err)
					o.failed = true
				} else {
					codeWords += len(af.Code)
				}
			} else if got != *first[k] {
				r.wrong("%s: round %d gave %+v, the first round %+v", j.name, round, got, *first[k])
				o.failed = true
			}
			return o
		}
	}

	if !cfg.trace {
		lp := &loop{r: r}
		lp.runRounds(cfg.seconds, len(jobs), rng, op(nil, nil))
		return r, lp.endToEnd(fig7TailPct, spillCost)
	}

	rec, l := newRecorder(), newLayers()
	traced := tracedRounds(r, cfg.seconds, len(jobs), rng, l, op(nil, nil), op(rec, l))
	l.finish(r, traced.ops)
	zeroService(r)
	r.values["code_words"] = float64(codeWords)
	r.values["vm_cycles"] = 0
	r.values["copies_left"] = float64(copies)
	r.values["spill_cost"] = spillCost
	r.values["failed_frac"] = float64(r.failed) / float64(r.attempted)
	r.report["allocate_accounting_ms_per_op"] = map[string]float64{
		"allocate":     r.values["alloc.allocate_ms"],
		"coalesce":     r.values["coalesce.ms"],
		"build_rest":   r.values["build.noncoalesce_ms"],
		"simplify":     r.values["color.simplify_ms"],
		"select":       r.values["color.select_ms"],
		"spill_insert": r.values["spill.insert_ms"],
		"unattributed": r.values["alloc.unattributed_ms"],
	}
	r.rec = rec
	return r, nil
}
