package alloc

import (
	"errors"
	"fmt"

	"regalloc/internal/color"
	"regalloc/internal/ir"
	"regalloc/internal/machine"
	"regalloc/internal/obs"
	"regalloc/internal/spill"
)

// Typed option errors, matched with errors.Is. The root regalloc
// package re-exports them so callers never import internal/alloc.
var (
	// ErrBadK reports a register count below 1 in either class.
	ErrBadK = errors.New("register counts must be at least 1 per class")
	// ErrBadHeuristic reports an out-of-range Heuristic value.
	ErrBadHeuristic = errors.New("unknown coloring heuristic")
	// ErrBadMetric reports an out-of-range spill Metric value.
	ErrBadMetric = errors.New("unknown spill metric")
	// ErrConflictingSpillModes reports Split and Rematerialize both
	// set; the two spill-code strategies are mutually exclusive.
	ErrConflictingSpillModes = errors.New("Split and Rematerialize are mutually exclusive")
	// ErrBadWorkers reports a negative Workers bound.
	ErrBadWorkers = errors.New("Workers must be >= 0")
	// ErrBadMachine reports a Machine model that fails its own
	// Validate, disagrees with KInt/KFloat, or is combined with an
	// heuristic that cannot honor precolored constraints (SSA or
	// PColor).
	ErrBadMachine = errors.New("invalid machine model configuration")
)

// Options configures a run of the allocator.
type Options struct {
	Heuristic color.Heuristic
	// KInt and KFloat are the available general-purpose and
	// floating-point register counts (the RT/PC has 16 and 8).
	KInt   int
	KFloat int
	// Metric is the spill-choice figure of merit (default
	// cost/degree, Chaitin's).
	Metric color.Metric
	// Coalesce enables copy coalescing in the build phase.
	Coalesce bool
	// ConservativeCoalesce switches from the paper's aggressive
	// coalescing to the Briggs conservative test (TOPLAS 1994): only
	// merge when the combined range provably stays colorable. Off by
	// default (the paper's baseline); included for the ablation.
	ConservativeCoalesce bool
	// CostParams tunes the spill-cost estimator.
	CostParams spill.CostParams
	// Rematerialize enables Chaitin's never-killed-value refinement:
	// constant-valued ranges are recomputed at each use instead of
	// being stored and reloaded, and their spill cost drops
	// accordingly. Off by default (the paper's baseline).
	Rematerialize bool
	// Split enables live-range splitting when spilling (the paper's
	// §4 future work): a range used but not defined in a loop is
	// reloaded once in the loop preheader instead of before every
	// use. Off by default (the paper's baseline is spill-everywhere).
	// Setting Split together with Rematerialize is rejected by
	// Validate with ErrConflictingSpillModes.
	Split bool
	// MaxPasses bounds the build–simplify–color–spill iteration;
	// the paper never observed more than three passes. Values <= 0
	// mean the default of 64.
	MaxPasses int
	// Observer, when non-nil, receives the allocator's structured
	// event stream (phase spans, counters, spill decisions,
	// color-reuse witnesses; see package obs). A nil Observer — the
	// default — costs one branch per instrumentation site. Whole-
	// program allocation emits from several goroutines at once, so
	// the Sink must be safe for concurrent use; all sinks in package
	// obs are.
	Observer obs.Sink
	// Workers bounds the unit pool of whole-program allocation
	// (regalloc.AssembleContext and AllocateAllContext); 0 means
	// GOMAXPROCS. A single unit always allocates on one goroutine, so
	// Workers never changes a result.
	Workers int
	// Machine, when non-nil, layers a register-file description over
	// the pure k-coloring problem: physical registers enter the
	// interference graph as precolored nodes, values live across calls
	// interfere with the caller-saved registers (so they prefer
	// callee-saved colors), and — under the IRC heuristic — the
	// calling convention's argument/return bindings become coalescing
	// candidates. Per-class counts must agree with KInt/KFloat
	// (Validate rejects a mismatch with ErrBadMachine), and the model
	// is incompatible with the SSA and PColor heuristics, neither of
	// which honors precolored constraints. Nil — the default — is the
	// paper's machine-agnostic formulation.
	Machine *machine.Model
}

// DefaultOptions returns the paper's configuration: the optimistic
// heuristic on a 16 GPR + 8 FPR machine.
func DefaultOptions() Options {
	return Options{
		Heuristic:  color.Briggs,
		KInt:       16,
		KFloat:     8,
		Metric:     color.CostOverDegree,
		Coalesce:   true,
		CostParams: spill.DefaultCostParams(),
		MaxPasses:  64,
	}
}

// K returns the class-to-color-count function for the options.
func (o Options) K() color.K { return color.NumColors(o.KInt, o.KFloat) }

// Validate checks the options for misuse and returns a typed error
// (ErrBadK, ErrBadHeuristic, ErrBadMetric, ErrConflictingSpillModes,
// ErrBadWorkers, or ErrBadMachine, all matchable with errors.Is)
// describing the first problem found. The one cross-family rule is
// that a Machine model is rejected with the SSA and PColor
// heuristics. Run, and the root package's Allocate and
// AssembleContext, call it before doing any work, so misconfiguration
// fails loudly instead of being silently patched up.
func (o Options) Validate() error {
	if o.KInt < 1 || o.KFloat < 1 {
		return fmt.Errorf("alloc: kInt=%d, kFloat=%d: %w", o.KInt, o.KFloat, ErrBadK)
	}
	if o.Heuristic < color.Chaitin || o.Heuristic > color.PColor {
		return fmt.Errorf("alloc: heuristic %d: %w", int(o.Heuristic), ErrBadHeuristic)
	}
	if o.Metric < color.CostOverDegree || o.Metric > color.DegreeOnly {
		return fmt.Errorf("alloc: metric %d: %w", int(o.Metric), ErrBadMetric)
	}
	if o.Split && o.Rematerialize {
		return fmt.Errorf("alloc: %w", ErrConflictingSpillModes)
	}
	if o.Workers < 0 {
		return fmt.Errorf("alloc: workers=%d: %w", o.Workers, ErrBadWorkers)
	}
	if o.Machine != nil {
		if err := o.Machine.Validate(); err != nil {
			return fmt.Errorf("alloc: %v: %w", err, ErrBadMachine)
		}
		if o.Machine.NumRegs[ir.ClassInt] != o.KInt || o.Machine.NumRegs[ir.ClassFloat] != o.KFloat {
			return fmt.Errorf("alloc: machine %s has %d/%d registers but kInt=%d, kFloat=%d: %w",
				o.Machine.Name, o.Machine.NumRegs[ir.ClassInt], o.Machine.NumRegs[ir.ClassFloat],
				o.KInt, o.KFloat, ErrBadMachine)
		}
		if o.Heuristic == color.SSA || o.Heuristic == color.PColor {
			return fmt.Errorf("alloc: machine model with the %s heuristic: %w", o.Heuristic, ErrBadMachine)
		}
	}
	return nil
}
