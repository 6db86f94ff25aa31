package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"regalloc"
	"regalloc/internal/asm"
	"regalloc/internal/ast"
	"regalloc/internal/experiments"
	"regalloc/internal/ir"
	"regalloc/internal/irgen"
	"regalloc/internal/opt"
	"regalloc/internal/parser"
	"regalloc/internal/sem"
	"regalloc/internal/workloads"
)

// suiteTailPct is suite's op_ms_tail percentile: a 35 s run makes about
// 500 ops, 125 a block, so p90 keeps at least 10 samples beyond it in a
// block and p95 would not.
const suiteTailPct = 90

// suiteFamilies are the five sequential allocator families.
var suiteFamilies = []struct {
	name string
	h    regalloc.Heuristic
}{
	{"chaitin", regalloc.Chaitin},
	{"briggs", regalloc.Briggs},
	{"matula-beck", regalloc.MatulaBeck},
	{"ssa", regalloc.SSA},
	{"irc", regalloc.IRC},
}

// suiteProg is one program of the suite with its dynamic scenario.
type suiteProg struct {
	name   string
	source string
	driver experiments.DriverFunc // nil: no scenario (CEDETA)
	ref    uint64                 // the scenario's digest on irinterp
}

// suiteOutcome is what every round must reproduce exactly for a job.
type suiteOutcome struct {
	spillCost float64
	copies    int
	codeWords int
	cycles    uint64
	irInstrs  int
}

// suiteSetup compiles the Figure 5 programs plus quicksort and runs
// each dynamic scenario on the reference interpreter.
func suiteSetup() ([]suiteProg, error) {
	drivers := map[string]experiments.DriverFunc{}
	for _, d := range experiments.Drivers() {
		drivers[d.Workload.Program] = d.Run
	}
	var progs []suiteProg
	for _, w := range append(workloads.All(), workloads.Quicksort()) {
		sp := suiteProg{name: w.Program, source: w.Source, driver: drivers[w.Program]}
		p, err := regalloc.Compile(w.Source)
		if err != nil {
			return nil, fmt.Errorf("compile %s: %w", w.Program, err)
		}
		if sp.driver != nil {
			if sp.ref, err = sp.driver(experiments.NewInterpEngine(p)); err != nil {
				return nil, fmt.Errorf("%s on irinterp: %w", w.Program, err)
			}
		}
		progs = append(progs, sp)
	}
	return progs, nil
}

// compileTraced is regalloc.Compile with a span around each stage.
func compileTraced(rec *recorder, l *layers, op, parent int32, source string) (*regalloc.Program, error) {
	stage := func(name, metric string, f func() error) error {
		id := rec.begin(op, parent, name)
		t0 := time.Now()
		err := f()
		l.addMS(metric, time.Since(t0))
		rec.end(id)
		return err
	}
	var irProg *ir.Program
	err := func() error {
		var tree *ast.Program
		var err error
		if err := stage("parser.Parse", "parser.parse_ms", func() error { tree, err = parser.Parse(source); return err }); err != nil {
			return err
		}
		var info *sem.Info
		if err := stage("sem.Check", "sem.check_ms", func() error { info, err = sem.Check(tree); return err }); err != nil {
			return err
		}
		if err := stage("irgen.Gen", "irgen.gen_ms", func() error {
			irProg, err = irgen.Gen(tree, info, irgen.DefaultStaticStart)
			return err
		}); err != nil {
			return err
		}
		return stage("opt.Run", "opt.run_ms", func() error {
			for _, f := range irProg.Funcs {
				opt.Run(f)
				if err := ir.Validate(f); err != nil {
					return err
				}
			}
			return nil
		})
	}()
	if err != nil {
		return nil, err
	}
	return &regalloc.Program{IR: irProg}, nil
}

// assembleTraced is Program.Assemble with a span around every Allocate
// and asm.Lower, on the same GOMAXPROCS-wide pool of unit workers.
func assembleTraced(rec *recorder, l *layers, op, parent int32, prog *regalloc.Program, m regalloc.Machine, o regalloc.Options) (*asm.Program, map[string]*regalloc.Result, error) {
	o.KInt, o.KFloat = m.NumGPR, m.NumFPR
	funcs := prog.IR.Funcs
	afs := make([]*asm.Func, len(funcs))
	results := make([]*regalloc.Result, len(funcs))
	errs := make([]error, len(funcs))
	slots := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, f := range funcs {
		slots <- struct{}{}
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			defer func() { <-slots }()
			res, err := allocate(rec, l, op, parent, prog, name, o)
			if err != nil {
				errs[i] = fmt.Errorf("regalloc: %s: %w", name, err)
				return
			}
			id := rec.begin(op, parent, "asm.Lower")
			t0 := time.Now()
			afs[i], errs[i] = asm.Lower(res.Func, res.Colors, m)
			l.addMS("asm.lower_ms", time.Since(t0))
			rec.end(id)
			results[i] = res
		}(i, f.Name)
	}
	wg.Wait()
	code := asm.NewProgram()
	byName := map[string]*regalloc.Result{}
	for i, f := range funcs {
		if errs[i] != nil {
			return nil, nil, errs[i]
		}
		code.Add(afs[i])
		byName[f.Name] = results[i]
	}
	return code, byName, nil
}

func runSuite(cfg config) (*run, error) {
	r := newRun()
	var progs []suiteProg
	var setups []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		ps, err := suiteSetup()
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		progs = ps
	}
	r.values["setup_s"] = medianOf(setups)
	r.report["setup_s_reps"] = setups

	m := regalloc.RTPC()
	nJobs := len(progs) * len(suiteFamilies)
	first := make([]*suiteOutcome, nJobs)
	var total suiteOutcome
	rng := rand.New(rand.NewSource(int64(cfg.seed)))

	op := func(rec *recorder, l *layers) func(round, k int) opResult {
		return func(round, k int) opResult {
			sp, fam := progs[k/len(suiteFamilies)], suiteFamilies[k%len(suiteFamilies)]
			name := sp.name + "/" + fam.name
			o := regalloc.DefaultOptions()
			o.Heuristic = fam.h
			var prog *regalloc.Program
			var code *asm.Program
			var results map[string]*regalloc.Result
			opID := rec.newOp()
			d, heap, err := timed(func() error {
				root := rec.begin(opID, 0, "suite.op")
				defer rec.end(root)
				var err error
				if rec == nil {
					if prog, err = regalloc.Compile(sp.source); err != nil {
						return err
					}
					code, results, err = prog.Assemble(m, o)
					return err
				}
				id := rec.begin(opID, root, "regalloc.Compile")
				prog, err = compileTraced(rec, l, opID, id, sp.source)
				rec.end(id)
				if err != nil {
					return err
				}
				id = rec.begin(opID, root, "regalloc.Assemble")
				code, results, err = assembleTraced(rec, l, opID, id, prog, m, o)
				rec.end(id)
				return err
			})
			res := opResult{d: d, heap: heap, units: len(results)}
			if err != nil {
				r.fail("%s: %v", name, err)
				res.failed = true
				return res
			}
			got := suiteOutcome{codeWords: codeWords(code), irInstrs: irInstrs(prog)}
			for _, f := range prog.IR.Funcs {
				unit, ur := f.Name, results[f.Name]
				if err := verify(ur); err != nil {
					r.wrong("%s: %s: %v", name, unit, err)
					res.failed = true
					return res
				}
				got.spillCost += ur.TotalSpillCost()
				got.copies += copiesLeft(ur)
			}
			if sp.driver != nil {
				e := experiments.VMEngine{M: regalloc.NewVM(code, prog.MemWords())}
				dg, err := sp.driver(e)
				if err != nil || dg != sp.ref {
					r.wrong("%s: VM digest %x (err %v), irinterp %x", name, dg, err, sp.ref)
					res.failed = true
					return res
				}
				got.cycles = e.M.Cycles
				if fam.h == regalloc.Briggs {
					// Once per program per round, rerun the scenario on
					// irinterp over this round's compiled IR.
					if dg, err := sp.driver(experiments.NewInterpEngine(prog)); err != nil || dg != sp.ref {
						r.wrong("%s: irinterp digest %x (err %v), set-up %x", name, dg, err, sp.ref)
						res.failed = true
						return res
					}
				}
				// The VM image (32 MB) is the check's garbage, not the
				// op's: collect it before the next op starts its clock.
				runtime.GC()
			}
			if first[k] == nil {
				first[k] = &got
				total.spillCost += got.spillCost
				total.copies += got.copies
				total.codeWords += got.codeWords
				total.cycles += got.cycles
				total.irInstrs += got.irInstrs
			} else if got != *first[k] {
				r.wrong("%s: round %d gave %+v, the first round %+v", name, round, got, *first[k])
				res.failed = true
			}
			if l != nil {
				l.addCount("frontend.ir_instrs", float64(got.irInstrs))
			}
			return res
		}
	}

	if !cfg.trace {
		lp := &loop{r: r}
		lp.runRounds(cfg.seconds, nJobs, rng, op(nil, nil))
		r.report["deterministic"] = map[string]any{
			"code_words": total.codeWords, "vm_cycles": total.cycles, "copies_left": total.copies,
		}
		return r, lp.endToEnd(suiteTailPct, total.spillCost)
	}

	rec, l := newRecorder(), newLayers()
	traced := tracedRounds(r, cfg.seconds, nJobs, rng, l, op(nil, nil), op(rec, l))
	l.finish(r, traced.ops)
	zeroService(r)
	r.values["code_words"] = float64(total.codeWords)
	r.values["vm_cycles"] = float64(total.cycles)
	r.values["copies_left"] = float64(total.copies)
	r.values["spill_cost"] = total.spillCost
	r.values["failed_frac"] = float64(r.failed) / float64(r.attempted)
	r.rec = rec
	return r, nil
}

func codeWords(p *asm.Program) int {
	n := 0
	for _, f := range p.Funcs {
		n += len(f.Code)
	}
	return n
}
