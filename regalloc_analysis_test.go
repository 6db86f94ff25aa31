package regalloc_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"regalloc"
	"regalloc/internal/asm"
	"regalloc/internal/color"
	"regalloc/internal/dataflow"
	"regalloc/internal/fuzzgen"
	"regalloc/internal/ig"
	"regalloc/internal/liverange"
	"regalloc/internal/spill"
	"regalloc/internal/workloads"
)

// decodeCounters returns counters[pass][name] summed from a JSON
// trace. Duplicate emissions of a per-pass counter are a bug the
// caller can catch by checking counts[pass][name].
func decodeCounters(t *testing.T, buf *bytes.Buffer) (values map[int]map[string]int64, counts map[int]map[string]int) {
	t.Helper()
	values = map[int]map[string]int64{}
	counts = map[int]map[string]int{}
	for _, ln := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var ev traceLine
		if err := json.Unmarshal([]byte(ln), &ev); err != nil {
			t.Fatalf("invalid JSON line %q: %v", ln, err)
		}
		if ev.Kind != "counter" {
			continue
		}
		if values[ev.Pass] == nil {
			values[ev.Pass] = map[string]int64{}
			counts[ev.Pass] = map[string]int{}
		}
		values[ev.Pass][ev.Name] += ev.Value
		counts[ev.Pass][ev.Name]++
	}
	return values, counts
}

// TestAnalysisRunsOncePerPass is the witness for the pass-level
// analysis cache: with coalescing off, every pass must compute
// liveness exactly once and run the CFG analysis exactly once — the
// counters the passCtx publishes make the contract checkable from the
// outside instead of relying on code inspection.
func TestAnalysisRunsOncePerPass(t *testing.T) {
	prog, err := regalloc.Compile(pressure)
	if err != nil {
		t.Fatal(err)
	}
	for _, split := range []bool{false, true} {
		var buf bytes.Buffer
		opt := regalloc.DefaultOptions()
		opt.Coalesce = false
		opt.Split = split
		opt.KInt = 4 // force several passes
		opt.Observer = regalloc.NewJSONSink(&buf)
		res, err := prog.Allocate("PRESS", opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Passes) < 2 {
			t.Fatal("test premise broken: PRESS at KInt=4 should need several passes")
		}
		values, counts := decodeCounters(t, &buf)
		for pass := range res.Passes {
			for _, name := range []string{"analysis.liveness_runs", "analysis.cfg_runs"} {
				if got := values[pass][name]; got != 1 {
					t.Errorf("split=%v pass %d: %s = %d, want exactly 1", split, pass, name, got)
				}
				if n := counts[pass][name]; n != 1 {
					t.Errorf("split=%v pass %d: %s emitted %d times", split, pass, name, n)
				}
			}
		}
	}
}

// TestAnalysisCacheUnderCoalescing: the CFG analysis must run
// exactly once per pass under coalescing too — merges never touch
// blocks. This pins the fix for the double cfg.Analyze in split mode.
// Full liveness runs once, plus once more for the post-coalesce
// renumber when a copy merged: aggressive rounds solve liveness over
// their copy registers alone, so the count must not grow with
// coalesce.rounds (HSSIAN takes dozens of rounds).
func TestAnalysisCacheUnderCoalescing(t *testing.T) {
	cedeta := workloads.Cedeta()
	for _, tc := range []struct {
		src, unit string
		kInt      int
		split     bool
	}{
		{pressure, "PRESS", 4, true},
		{cedeta.Source, "HSSIAN", 16, false},
	} {
		prog, err := regalloc.Compile(tc.src)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		opt := regalloc.DefaultOptions()
		opt.Split = tc.split
		opt.KInt = tc.kInt
		opt.Observer = regalloc.NewJSONSink(&buf)
		res, err := prog.Allocate(tc.unit, opt)
		if err != nil {
			t.Fatal(err)
		}
		values, _ := decodeCounters(t, &buf)
		maxRounds := int64(0)
		for pass := range res.Passes {
			if got := values[pass]["analysis.cfg_runs"]; got != 1 {
				t.Errorf("%s pass %d: analysis.cfg_runs = %d, want exactly 1", tc.unit, pass, got)
			}
			want := int64(1)
			if values[pass]["coalesce.moves"] > 0 {
				want = 2
			}
			if got := values[pass]["analysis.liveness_runs"]; got != want {
				t.Errorf("%s pass %d: analysis.liveness_runs = %d, want %d (coalesce.rounds = %d)",
					tc.unit, pass, got, want, values[pass]["coalesce.rounds"])
			}
			if r := values[pass]["coalesce.rounds"]; r > maxRounds {
				maxRounds = r
			}
		}
		if tc.unit == "HSSIAN" && maxRounds < 10 {
			t.Errorf("test premise broken: HSSIAN took at most %d coalesce rounds per pass", maxRounds)
		}
	}
}

// fuzzCorpus compiles a deterministic set of fuzz-generated routines.
func fuzzCorpus(t *testing.T, n int) []*regalloc.Program {
	t.Helper()
	var progs []*regalloc.Program
	for seed := uint64(1); len(progs) < n; seed++ {
		src := fuzzgen.Generate(seed, fuzzgen.Config{MaxStmts: 40, MaxDepth: 3})
		prog, err := regalloc.Compile(src)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		progs = append(progs, prog)
	}
	return progs
}

// TestBriggsSpillsSubsetOfChaitin is the paper's central claim as a
// differential property: on the same first-pass graph and costs, the
// nodes the optimistic heuristic actually spills are a subset of the
// nodes Chaitin's pessimistic rule marks — optimism can only rescue
// marked nodes, never create new spills.
func TestBriggsSpillsSubsetOfChaitin(t *testing.T) {
	kf := color.NumColors(4, 4) // small files so the corpus spills
	for i, prog := range fuzzCorpus(t, 25) {
		f := prog.Func("FZ").Clone()
		liverange.Renumber(f)
		lv := dataflow.ComputeLiveness(f)
		g := ig.BuildWithLiveness(f, lv, nil)
		costs := spill.Costs(f, spill.DefaultCostParams())

		chaitin := color.Simplify(g, costs, kf, color.Chaitin, color.CostOverDegree)
		marked := map[int32]bool{}
		for _, n := range chaitin.SpillMarked {
			marked[n] = true
		}

		briggs := color.Simplify(g, costs, kf, color.Briggs, color.CostOverDegree)
		_, uncolored := color.Select(g, briggs.Stack, kf, true)
		for _, n := range uncolored {
			if !marked[n] {
				t.Errorf("corpus %d: Briggs spilled v%d which Chaitin never marked", i, n)
			}
		}
		if len(uncolored) > len(chaitin.SpillMarked) {
			t.Errorf("corpus %d: Briggs spilled %d > Chaitin's %d",
				i, len(uncolored), len(chaitin.SpillMarked))
		}
	}
}

// TestWorkersEquivalence: Workers only sizes the unit pool of
// whole-program allocation, so assembling every corpus program on
// one worker and on four must give each unit the same machine code
// and the same per-pass statistics.
func TestWorkersEquivalence(t *testing.T) {
	for _, w := range workloads.All() {
		prog, err := regalloc.Compile(w.Source)
		if err != nil {
			t.Fatal(err)
		}
		opt := regalloc.DefaultOptions()
		opt.Workers = 1
		seqCode, seqRes, err := prog.Assemble(regalloc.RTPC(), opt)
		if err != nil {
			t.Fatalf("%s: %v", w.Program, err)
		}
		opt.Workers = 4
		parCode, parRes, err := prog.Assemble(regalloc.RTPC(), opt)
		if err != nil {
			t.Fatalf("%s: %v", w.Program, err)
		}
		for _, name := range prog.Functions() {
			var a, b bytes.Buffer
			asm.Fprint(&a, seqCode.Func(name))
			asm.Fprint(&b, parCode.Func(name))
			if a.String() != b.String() {
				t.Fatalf("%s: code differs between Workers=1 and Workers=4", name)
			}
			sp, pp := seqRes[name].Passes, parRes[name].Passes
			if len(sp) != len(pp) {
				t.Fatalf("%s: pass counts differ: %d vs %d", name, len(sp), len(pp))
			}
			for i := range sp {
				x, y := sp[i], pp[i]
				x.Build, x.Simplify, x.Color, x.Spill = 0, 0, 0, 0
				y.Build, y.Simplify, y.Color, y.Spill = 0, 0, 0, 0
				if x != y {
					t.Fatalf("%s: pass %d stats differ:\n w1 %+v\n w4 %+v", name, i, x, y)
				}
			}
		}
	}
}
