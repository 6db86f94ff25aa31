// Command perfbench is the repository's benchmark: one command that
// runs one of three workloads against the allocator and its service,
// checks every output, and prints every metric by name and unit.
//
//	perfbench -workload fig7|suite|allocd-mix -seed N -seconds S -trace 0|1
//
// With -trace 0 it prints the end-to-end metrics, measured with
// tracing off. With -trace 1 it takes turns between untraced work, the
// baseline for the tracing overhead, and traced work, which records a
// span around every public call it makes (turning the allocator's
// Observer events into child spans of each Allocate span), and prints
// the per-layer metrics. METRICS.md defines every
// metric and records which layer metric should move which end-to-end
// metric on which workload.
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// A full report (raw-sample quartiles, host fingerprint, failures)
// goes to -out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd is what a user of the allocator or of allocd sees; every
// workload reports every one of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"units_per_s", "1/s"},
	{"op_ms_p50", "ms"},
	{"op_ms_tail", "ms"},
	{"heap_mb_per_unit", "MB"},
	{"spill_cost", "cost"},
	{"ok_frac", "ratio"},
	{"max_rps", "1/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer comes from the traced run. A layer that a workload never
// runs reports 0.
var perLayer = []metricDef{
	{"parser.parse_ms", "ms"},
	{"sem.check_ms", "ms"},
	{"irgen.gen_ms", "ms"},
	{"opt.run_ms", "ms"},
	{"frontend.ir_instrs", "count"},
	{"alloc.allocate_ms", "ms"},
	{"alloc.passes", "count"},
	{"alloc.build_ms", "ms"},
	{"alloc.unattributed_ms", "ms"},
	{"coalesce.ms", "ms"},
	{"build.noncoalesce_ms", "ms"},
	{"coalesce.rounds", "count"},
	{"coalesce.examined", "count"},
	{"coalesce.merged_per_examined", "ratio"},
	{"dataflow.liveness_runs", "count"},
	{"ig.nodes", "count"},
	{"ig.edges", "count"},
	{"ig.edge_inserts", "count"},
	{"color.simplify_ms", "ms"},
	{"color.select_ms", "ms"},
	{"color.scan_steps", "count"},
	{"color.spill_candidates", "count"},
	{"color.optimistic_rescues", "count"},
	{"color.rescued_per_candidate", "ratio"},
	{"spill.insert_ms", "ms"},
	{"spill.ranges", "count"},
	{"spill.loads", "count"},
	{"spill.stores", "count"},
	{"irc.ms", "ms"},
	{"irc.moves_coalesced", "count"},
	{"irc.moves_constrained", "count"},
	{"irc.moves_frozen", "count"},
	{"ssa.ms", "ms"},
	{"ssa.lower_ms", "ms"},
	{"ssa.prespill_rounds", "count"},
	{"ssa.phis", "count"},
	{"ssa.copies", "count"},
	{"asm.lower_ms", "ms"},
	{"code_words", "instrs"},
	{"vm_cycles", "cycles"},
	{"copies_left", "count"},
	{"failed_frac", "ratio"},
	{"allocd.hit_ms_p50", "ms"},
	{"allocd.hit_ms_p99", "ms"},
	{"allocd.miss_ms_p50", "ms"},
	{"allocd.miss_ms_p99", "ms"},
	{"allocd.server_alloc_ms", "ms"},
	{"allocd.miss_overhead_ms", "ms"},
	{"rescache.hit_frac", "ratio"},
	{"rescache.lookups", "count"},
	{"rescache.evictions", "count"},
	{"cachekey.key_ms", "ms"},
	{"loadgen.lag_ms_p99", "ms"},
	{"trace.overhead_pct", "%"},
}

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	allocd   string // path of the allocd binary (allocd-mix only)
	out      string // directory for reports, spans and the allocd log
}

// run accumulates one invocation's outcome.
type run struct {
	correct   bool
	attempted int
	failed    int
	values    map[string]float64
	report    map[string]any
	failures  []string
	rec       *recorder // the traced run's spans, written out at the end
}

func newRun() *run {
	return &run{correct: true, values: map[string]float64{}, report: map[string]any{}}
}

const maxFailureLines = 50

// fail counts one failed op: an error return, a refused or broken
// reply. The op's output was not wrong, there was none.
func (r *run) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < maxFailureLines {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// wrong counts one failed op whose output was checked and found
// incorrect; the whole run is then reported as not correct.
func (r *run) wrong(format string, args ...any) {
	r.correct = false
	r.fail("WRONG: "+format, args...)
}

func main() {
	var cfg config
	var seed int64
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "fig7, suite or allocd-mix")
	flag.Int64Var(&seed, "seed", 1, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measuring time per run")
	flag.IntVar(&trace, "trace", 0, "1 for the traced per-layer run")
	flag.StringVar(&cfg.allocd, "allocd", ".bench_build/allocd", "allocd binary (allocd-mix)")
	flag.StringVar(&cfg.out, "out", ".bench_build/reports", "directory for the full report")
	flag.Parse()
	cfg.seed = uint64(seed)
	cfg.trace = trace != 0

	start := time.Now()
	var r *run
	var err error
	switch cfg.workload {
	case "fig7":
		r, err = runFig7(cfg)
	case "suite":
		r, err = runSuite(cfg)
	case "allocd-mix":
		r, err = runAllocdMix(cfg)
	default:
		err = fmt.Errorf("unknown workload %q (want fig7, suite or allocd-mix)", cfg.workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	r.report["wall_s"] = time.Since(start).Seconds()
	if err := emit(cfg, r); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit writes the full report, prints one readable line per metric,
// and prints the result object as the last line.
func emit(cfg config, r *run) error {
	out := cfg.out
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	metrics := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", cfg.workload, d.name)
		}
		metrics[d.name] = metricValue{v, d.unit}
		fmt.Printf("%-30s %16.6g %s\n", d.name, v, d.unit)
	}
	for _, f := range r.failures {
		fmt.Fprintln(os.Stderr, "failed:", f)
	}

	root, _ := os.Getwd()
	full := map[string]any{
		"workload":  cfg.workload,
		"seed":      cfg.seed,
		"seconds":   cfg.seconds,
		"trace":     cfg.trace,
		"host":      fingerprint(root),
		"correct":   r.correct,
		"attempted": r.attempted,
		"failed":    r.failed,
		"failures":  r.failures,
		"metrics":   metrics,
		"detail":    r.report,
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%v.json", cfg.workload, cfg.seed, boolInt(cfg.trace))
	if err := writeJSON(filepath.Join(out, name), full); err != nil {
		return err
	}

	if r.rec != nil {
		spans := map[string]any{"layers": r.rec.selfTimes(), "spans": r.rec.spans}
		name := fmt.Sprintf("%s-seed%d-spans.json", cfg.workload, cfg.seed)
		if err := writeJSON(filepath.Join(out, name), spans); err != nil {
			return err
		}
	}

	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.correct, r.attempted, r.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// median of a few setup repetitions.
func medianOf(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	return c[rank(len(c), 50)]
}
