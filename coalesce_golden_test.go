package regalloc_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"regalloc"
	"regalloc/internal/fuzzgen"
	"regalloc/internal/ir"
	"regalloc/internal/workloads"
)

// coalesceGoldenPath holds one digest line per allocation of the
// golden matrix below. It pins what the build/coalesce fixpoint
// produces — code, colors, spill cost, passes and moves removed — so
// a change to how the coalescer answers its interference questions
// can be shown to change none of the answers.
const coalesceGoldenPath = "testdata/coalesce_golden.txt"

// pcolorGoldenPath pins the PColor heuristic (Jones–Plassmann, seed
// 1) over the same matrix, so its move out of the cycle's inline
// color step and into a heuristic of its own changes no allocation.
const pcolorGoldenPath = "testdata/pcolor_golden.txt"

// goldenUnit is one program of the golden matrix with the register
// budgets it is allocated at.
type goldenUnit struct {
	name string
	src  string
	ks   [][2]int
}

func goldenUnits() []goldenUnit {
	var units []goldenUnit
	for _, w := range append(workloads.All(), workloads.Quicksort()) {
		units = append(units, goldenUnit{w.Program, w.Source, [][2]int{{16, 8}, {6, 6}}})
	}
	for seed := uint64(1); seed <= 40; seed++ {
		units = append(units, goldenUnit{fmt.Sprintf("fuzz%d", seed), fuzzgen.Generate(seed, fuzzgen.Config{}), [][2]int{{6, 6}}})
	}
	return units
}

// goldenLine allocates one routine and digests the result: spill
// cost, ranges spilled, passes, moves coalesced, and a sha256 over the
// allocated IR listing and its colors. An error is recorded by its
// message.
func goldenLine(p *regalloc.Program, unit, routine string, k [2]int, h regalloc.Heuristic, conservative bool) string {
	opt := regalloc.DefaultOptions()
	opt.Heuristic = h
	opt.KInt, opt.KFloat = k[0], k[1]
	opt.ConservativeCoalesce = conservative
	key := fmt.Sprintf("%s %s k=%d+%d %s cons=%t", unit, routine, k[0], k[1], h, conservative)
	res, err := p.Allocate(routine, opt)
	if err != nil {
		return key + " err=" + strconv.Quote(err.Error())
	}
	moves := 0
	for _, ps := range res.Passes {
		moves += ps.CoalescedMoves
	}
	var buf bytes.Buffer
	ir.Fprint(&buf, res.Func)
	fmt.Fprintln(&buf, res.Colors)
	return fmt.Sprintf("%s cost=%s spilled=%d passes=%d moves=%d sha256=%x",
		key, strconv.FormatFloat(res.TotalSpillCost(), 'g', -1, 64),
		res.TotalSpilled(), len(res.Passes), moves, sha256.Sum256(buf.Bytes()))
}

// goldenLines computes the whole matrix: every corpus routine at 16+8
// and 6+6, and fuzzgen seeds 1-40 at 6+6, each under every given
// heuristic with aggressive and with conservative coalescing. The
// allocations run on GOMAXPROCS workers; the lines come back in
// matrix order.
func goldenLines(t *testing.T, heuristics []regalloc.Heuristic) []string {
	t.Helper()
	type job struct {
		p       *regalloc.Program
		unit    string
		routine string
		k       [2]int
		h       regalloc.Heuristic
		cons    bool
	}
	var jobs []job
	for _, u := range goldenUnits() {
		p, err := regalloc.Compile(u.src)
		if err != nil {
			t.Fatalf("%s: compile: %v", u.name, err)
		}
		for _, routine := range p.Functions() {
			for _, k := range u.ks {
				for _, h := range heuristics {
					for _, cons := range []bool{false, true} {
						jobs = append(jobs, job{p, u.name, routine, k, h, cons})
					}
				}
			}
		}
	}
	lines := make([]string, len(jobs))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				j := jobs[i]
				lines[i] = goldenLine(j.p, j.unit, j.routine, j.k, j.h, j.cons)
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()
	return lines
}

// checkGolden holds every allocation of the golden matrix under
// heuristics to the digest recorded in path. Any differing line
// fails.
func checkGolden(t *testing.T, path string, heuristics ...regalloc.Heuristic) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	got := goldenLines(t, heuristics)
	if len(got) != len(want) {
		t.Errorf("golden matrix has %d lines, %s has %d", len(got), path, len(want))
	}
	bad := 0
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			if bad++; bad <= 10 {
				t.Errorf("line %d differs:\n got  %s\n want %s", i+1, got[i], want[i])
			}
		}
	}
	if bad > 10 {
		t.Errorf("... %d differing lines in all", bad)
	}
}

// TestCoalesceGolden: a pure speed-up of the coalescer must leave
// every allocation of the five families unchanged.
func TestCoalesceGolden(t *testing.T) {
	checkGolden(t, coalesceGoldenPath, regalloc.Chaitin, regalloc.Briggs, regalloc.MatulaBeck, regalloc.SSA, regalloc.IRC)
}

// TestPColorGolden holds the PColor heuristic to its recorded digests.
func TestPColorGolden(t *testing.T) {
	checkGolden(t, pcolorGoldenPath, regalloc.PColor)
}
