package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"regalloc"
	"regalloc/internal/portfolio"
	"regalloc/internal/workloads"
)

// PortfolioCandidateRow is one strategy's outcome in one routine's
// race.
type PortfolioCandidateRow struct {
	Name      string
	Status    string
	Spills    int
	CostMilli int64
	NS        int64
}

// PortfolioRow is one routine's race.
type PortfolioRow struct {
	Program     string
	Routine     string
	Winner      string
	Spills      int
	CostMilli   int64
	MarginMilli int64
	Candidates  []PortfolioCandidateRow
}

// PortfolioStudyResult is the full racing study.
type PortfolioStudyResult struct {
	Mode string
	Rows []PortfolioRow
	// Wins counts races won per strategy, the portfolio's
	// justification in one map: no single strategy wins them all.
	Wins map[string]int
}

// PortfolioStudy races the default strategy portfolio (the paper's
// two heuristics, the alternative spill metrics, smallest-last, SSA,
// IRC and PColor) over every routine
// of the Figure 5 corpus and reports each race's outcome table. The
// study is the engine's evidence for the Das-style hybrid argument:
// the winner column varies by routine, and the portfolio's cost is
// the per-routine minimum by construction. Runs feed the package
// observer, so -trace surfaces per-candidate event streams.
func PortfolioStudy() (*PortfolioStudyResult, error) {
	cands := regalloc.DefaultPortfolio(regalloc.DefaultOptions())
	out := &PortfolioStudyResult{Mode: portfolio.RaceToBest.String(), Wins: map[string]int{}}
	for _, w := range workloads.All() {
		prog, err := regalloc.Compile(w.Source)
		if err != nil {
			return nil, fmt.Errorf("portfolio study: compile %s: %w", w.Program, err)
		}
		for _, routine := range w.Routines {
			pr, err := prog.AllocatePortfolio(context.Background(), routine, cands,
				regalloc.PortfolioConfig{Observer: observer})
			if err != nil {
				return nil, fmt.Errorf("portfolio study: %s/%s: %w", w.Program, routine, err)
			}
			win := pr.Outcomes[pr.Winner]
			row := PortfolioRow{
				Program:     w.Program,
				Routine:     routine,
				Winner:      win.Name,
				Spills:      win.Spills,
				CostMilli:   win.SpillCostMilli,
				MarginMilli: pr.WinMarginMilli,
			}
			for _, o := range pr.Outcomes {
				row.Candidates = append(row.Candidates, PortfolioCandidateRow{
					Name:      o.Name,
					Status:    o.Status.String(),
					Spills:    o.Spills,
					CostMilli: o.SpillCostMilli,
					NS:        o.Duration.Nanoseconds(),
				})
			}
			out.Rows = append(out.Rows, row)
			out.Wins[win.Name]++
		}
	}
	return out, nil
}

// String renders the study table.
func (r *PortfolioStudyResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "heuristic-portfolio racing over the Figure 5 corpus (mode %s)\n", r.Mode)
	fmt.Fprintf(&b, "%-8s %-8s | %-14s | %6s %10s %10s\n",
		"program", "routine", "winner", "spills", "cost", "margin")
	b.WriteString(strings.Repeat("-", 66) + "\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-8s %-8s | %-14s | %6d %10.3f %10.3f\n",
			row.Program, row.Routine, row.Winner, row.Spills,
			float64(row.CostMilli)/1000, float64(row.MarginMilli)/1000)
	}
	names := make([]string, 0, len(r.Wins))
	for n := range r.Wins {
		names = append(names, n)
	}
	sort.Strings(names)
	b.WriteString("races won: ")
	for i, n := range names {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %d", n, r.Wins[n])
	}
	b.WriteString("\ncost and margin are spill-cost units (fixed-point milli); ties go to the lowest candidate index\n")
	return b.String()
}
