package regalloc_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"regalloc"
	"regalloc/internal/fuzzgen"
	"regalloc/internal/obs/promtext"
	"regalloc/internal/workloads"
)

// TestPortfolioNeverWorseThanStandalone is the differential oracle of
// the racing engine: over the full Figure 5 corpus, the portfolio
// winner's spill cost must be at most every candidate's cost when that
// candidate is run standalone (candidates that error standalone are
// expected to error identically inside the race and are excluded).
func TestPortfolioNeverWorseThanStandalone(t *testing.T) {
	cands := regalloc.DefaultPortfolio(regalloc.DefaultOptions())
	for _, w := range workloads.All() {
		prog, err := regalloc.Compile(w.Source)
		if err != nil {
			t.Fatalf("%s: %v", w.Program, err)
		}
		for _, unit := range w.Routines {
			pr, err := prog.AllocatePortfolio(context.Background(), unit, cands, regalloc.PortfolioConfig{})
			if err != nil {
				t.Fatalf("%s/%s: %v", w.Program, unit, err)
			}
			win := pr.Outcomes[pr.Winner]
			for _, c := range cands {
				res, err := prog.Allocate(unit, c.Opt)
				if err != nil {
					// The same strategy must have lost the race the
					// same way, not silently produced a result.
					for _, o := range pr.Outcomes {
						if o.Name == c.Name && o.Err == nil {
							t.Errorf("%s/%s: %s errors standalone (%v) but finished in the race", w.Program, unit, c.Name, err)
						}
					}
					continue
				}
				cost := regalloc.Summarize(unit, res).SpillCostMilli
				if cost < win.SpillCostMilli {
					t.Errorf("%s/%s: standalone %s cost %d beats portfolio winner %s cost %d",
						w.Program, unit, c.Name, cost, win.Name, win.SpillCostMilli)
				}
			}
		}
	}
}

// TestPortfolioDeterministicWinner races the spilliest unit of the
// corpus repeatedly under different concurrency and requires the same
// winner, cost, and margin every time — the selection key is a pure
// function of the outcomes, not of goroutine finish order.
func TestPortfolioDeterministicWinner(t *testing.T) {
	w := workloads.SVD()
	prog, err := regalloc.Compile(w.Source)
	if err != nil {
		t.Fatal(err)
	}
	cands := regalloc.DefaultPortfolio(regalloc.DefaultOptions())
	type key struct {
		winner string
		cost   int64
		margin int64
	}
	var first key
	for trial := 0; trial < 4; trial++ {
		pr, err := prog.AllocatePortfolio(context.Background(), "SVD", cands, regalloc.PortfolioConfig{Workers: 1 + trial})
		if err != nil {
			t.Fatal(err)
		}
		got := key{pr.Outcomes[pr.Winner].Name, pr.Outcomes[pr.Winner].SpillCostMilli, pr.WinMarginMilli}
		if trial == 0 {
			first = got
			continue
		}
		if got != first {
			t.Fatalf("trial %d: %+v, want %+v", trial, got, first)
		}
	}
}

// TestPortfolioPColorWins pins why pcolor stays in the default
// portfolio: on fuzzgen seed 40 at 6+6 registers it wins at spill
// cost 22, and the next-best candidate costs 26.
func TestPortfolioPColorWins(t *testing.T) {
	prog, err := regalloc.Compile(fuzzgen.Generate(40, fuzzgen.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	opt := regalloc.DefaultOptions()
	opt.KInt, opt.KFloat = 6, 6
	pr, err := prog.AllocatePortfolio(context.Background(), "FZ", regalloc.DefaultPortfolio(opt), regalloc.PortfolioConfig{})
	if err != nil {
		t.Fatal(err)
	}
	win := pr.Outcomes[pr.Winner]
	if win.Name != "pcolor" || win.SpillCostMilli != 22000 || pr.WinMarginMilli != 4000 {
		t.Fatalf("winner %s at cost %d milli, margin %d, want pcolor at 22000, margin 4000",
			win.Name, win.SpillCostMilli, pr.WinMarginMilli)
	}
}

// TestSummarizePortfolio checks the registry record a race produces:
// winner summary fields plus the portfolio counts.
func TestSummarizePortfolio(t *testing.T) {
	prog, err := regalloc.Compile(workloads.SVD().Source)
	if err != nil {
		t.Fatal(err)
	}
	cands := regalloc.DefaultPortfolio(regalloc.DefaultOptions())
	pr, err := prog.AllocatePortfolio(context.Background(), "SVD", cands, regalloc.PortfolioConfig{})
	if err != nil {
		t.Fatal(err)
	}
	s := regalloc.SummarizePortfolio("SVD", pr)
	if s.Unit != "SVD" || s.PortfolioCandidates != len(cands) {
		t.Fatalf("summary: %+v", s)
	}
	if s.PortfolioWinner != pr.Outcomes[pr.Winner].Name {
		t.Fatalf("winner %q, want %q", s.PortfolioWinner, pr.Outcomes[pr.Winner].Name)
	}
	if s.SpillCostMilli != pr.Outcomes[pr.Winner].SpillCostMilli {
		t.Fatalf("cost %d, want %d", s.SpillCostMilli, pr.Outcomes[pr.Winner].SpillCostMilli)
	}
	reg := regalloc.NewRegistry()
	reg.Record(s)
	snap := reg.Snapshot()
	if snap.PortfolioRaces != 1 || snap.PortfolioWins[s.PortfolioWinner] != 1 {
		t.Fatalf("registry: %+v", snap)
	}
}

// TestPortfolioWinsLabelSetComplete pins the wins_total label-set
// contract: after one race, the registry exports a wins_total series
// for EVERY candidate strategy in the race — zero for the losers —
// not just for strategies that happen to have won. (Before entrants
// were recorded, a family like irc or ssa that never won a race was
// simply absent from /metrics, and win rates computed from the scrape
// silently skewed toward the incumbents.)
func TestPortfolioWinsLabelSetComplete(t *testing.T) {
	prog, err := regalloc.Compile(workloads.SVD().Source)
	if err != nil {
		t.Fatal(err)
	}
	cands := regalloc.DefaultPortfolio(regalloc.DefaultOptions())
	pr, err := prog.AllocatePortfolio(context.Background(), "SVD", cands, regalloc.PortfolioConfig{})
	if err != nil {
		t.Fatal(err)
	}
	reg := regalloc.NewRegistry()
	reg.Record(regalloc.SummarizePortfolio("SVD", pr))
	snap := reg.Snapshot()
	var sb strings.Builder
	if err := promtext.Write(&sb, snap); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	wins := 0
	for _, c := range cands {
		series := fmt.Sprintf("regalloc_portfolio_wins_total{strategy=%q}", c.Name)
		if !strings.Contains(out, series) {
			t.Errorf("series %s missing from the export", series)
		}
		wins += int(snap.PortfolioWins[c.Name])
	}
	if wins != 1 {
		t.Fatalf("wins across the candidate set sum to %d, want 1", wins)
	}
	// The candidate list includes every allocator family by name.
	for _, family := range []string{"chaitin", "briggs", "mb", "ssa", "irc", "pcolor"} {
		found := false
		for _, c := range cands {
			if c.Name == family {
				found = true
			}
		}
		if !found {
			t.Errorf("default portfolio lacks the %s family", family)
		}
	}
}

// TestAssemblePortfolio races every unit of a program and checks the
// winning code still executes correctly on the VM.
func TestAssemblePortfolio(t *testing.T) {
	prog, err := regalloc.Compile(workloads.Quicksort().Source)
	if err != nil {
		t.Fatal(err)
	}
	cands := regalloc.DefaultPortfolio(regalloc.DefaultOptions())
	code, results, err := prog.AssemblePortfolio(context.Background(), regalloc.RTPC(), cands, regalloc.PortfolioConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, unit := range prog.Functions() {
		if results[unit] == nil {
			t.Fatalf("no race result for %s", unit)
		}
	}
	if code == nil {
		t.Fatal("no code")
	}
}
