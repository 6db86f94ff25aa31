package experiments

import (
	"fmt"
	"strings"

	"regalloc"
	"regalloc/internal/vm"
	"regalloc/internal/workloads"
)

// The paper closes §3.2 wanting "to collect more data on the
// effectiveness of our allocator for smaller register sets" and "a
// more diverse set of non-floating point programs". IntegerStudy is
// that experiment: four integer kernels (sieve, hashing, checksum,
// gcd) swept over the Figure 6 register counts.

// IntRow is one (routine, register-count) cell.
type IntRow struct {
	Routine    string
	K          int
	SpilledOld int
	SpilledNew int
	CyclesOld  uint64
	CyclesNew  uint64
}

// IntegerStudyResult is the full sweep.
type IntegerStudyResult struct {
	Rows []IntRow
}

// runIntegerKernels drives all four kernels and returns a combined
// digest (it doubles as the semantics check for this workload).
func runIntegerKernels(e Engine) (uint64, error) {
	const (
		flags = int64(0) // 4000 words
		count = int64(5000)
		keys  = int64(6000) // 512 keys
		table = int64(8000) // 1021 slots
		hits  = int64(10000)
		data  = int64(11000) // 512 words
		crc   = int64(12000)
		ga    = int64(13000) // 256 pairs
		gb    = int64(14000)
		gg    = int64(15000)
	)
	r := &lcg{s: 41}
	if _, err := e.Call("SIEVE", vm.Int(flags), vm.Int(4000), vm.Int(count)); err != nil {
		return 0, check("SIEVE", err)
	}
	for i := int64(0); i < 512; i++ {
		e.StoreInt(keys+i, 1+r.intn(1<<30))
		e.StoreInt(data+i, r.intn(1<<16))
	}
	if _, err := e.Call("HASH", vm.Int(keys), vm.Int(512), vm.Int(table), vm.Int(1021), vm.Int(hits)); err != nil {
		return 0, check("HASH", err)
	}
	if _, err := e.Call("CRCS", vm.Int(data), vm.Int(512), vm.Int(crc)); err != nil {
		return 0, check("CRCS", err)
	}
	for i := int64(0); i < 256; i++ {
		e.StoreInt(ga+i, 1+r.intn(100000))
		e.StoreInt(gb+i, 1+r.intn(100000))
	}
	if _, err := e.Call("GCDS", vm.Int(ga), vm.Int(gb), vm.Int(gg), vm.Int(256)); err != nil {
		return 0, check("GCDS", err)
	}
	var d digest
	d.addInt(e.LoadInt(count))
	d.addInt(e.LoadInt(hits))
	d.addInt(e.LoadInt(crc))
	for i := int64(0); i < 256; i++ {
		d.addInt(e.LoadInt(gg + i))
	}
	// Spot-check invariants, not just digests: every key inserted
	// must be found, and pi(4000) = 550.
	if e.LoadInt(hits) != 512 {
		return 0, fmt.Errorf("HASH lost keys: %d/512 found", e.LoadInt(hits))
	}
	if e.LoadInt(count) != 550 {
		return 0, fmt.Errorf("SIEVE: pi(4000) = %d, want 550", e.LoadInt(count))
	}
	return d.sum(), nil
}

// IntegerStudy compiles the integer kernels at each register count
// under both heuristics, verifying both produce identical results.
func IntegerStudy() (*IntegerStudyResult, error) {
	w := workloads.IntegerKernels()
	prog, err := regalloc.Compile(w.Source)
	if err != nil {
		return nil, err
	}
	out := &IntegerStudyResult{}
	for _, k := range []int{16, 12, 10, 8, 6} {
		machine := regalloc.RTPC().WithGPR(k)
		spills := make(map[regalloc.Heuristic]map[string]int)
		cycles := make(map[regalloc.Heuristic]uint64)
		digests := make(map[regalloc.Heuristic]uint64)
		for _, h := range []regalloc.Heuristic{regalloc.Chaitin, regalloc.Briggs} {
			spills[h] = make(map[string]int)
			for _, rt := range w.Routines {
				opt := defaultOptions()
				opt.Heuristic = h
				opt.KInt = k
				res, err := prog.Allocate(rt, opt)
				if err != nil {
					return nil, fmt.Errorf("k=%d %s %s: %w", k, h, rt, err)
				}
				spills[h][rt] = res.FirstPassSpilled()
			}
			eng, err := NewVMEngine(prog, h, machine)
			if err != nil {
				return nil, err
			}
			digests[h], err = runIntegerKernels(eng)
			if err != nil {
				return nil, fmt.Errorf("k=%d %s: %w", k, h, err)
			}
			cycles[h] = eng.M.Cycles
		}
		if digests[regalloc.Chaitin] != digests[regalloc.Briggs] {
			return nil, fmt.Errorf("k=%d: heuristics disagree on kernel results", k)
		}
		for _, rt := range w.Routines {
			out.Rows = append(out.Rows, IntRow{
				Routine:    rt,
				K:          k,
				SpilledOld: spills[regalloc.Chaitin][rt],
				SpilledNew: spills[regalloc.Briggs][rt],
				CyclesOld:  cycles[regalloc.Chaitin],
				CyclesNew:  cycles[regalloc.Briggs],
			})
		}
	}
	return out, nil
}

// String renders the sweep, one block per register count.
func (r *IntegerStudyResult) String() string {
	var b strings.Builder
	b.WriteString("integer kernels across register counts (extension of Figure 6; see EXPERIMENTS.md)\n")
	fmt.Fprintf(&b, "%4s | %-8s %9s %9s | %14s %14s %5s\n",
		"regs", "routine", "old spill", "new spill", "old cycles", "new cycles", "pct")
	b.WriteString(strings.Repeat("-", 80) + "\n")
	lastK := -1
	for _, row := range r.Rows {
		kCol := ""
		cyc := ""
		if row.K != lastK {
			kCol = fmt.Sprintf("%d", row.K)
			cyc = fmt.Sprintf("%14d %14d %5.1f", row.CyclesOld, row.CyclesNew,
				pct(float64(row.CyclesOld), float64(row.CyclesNew)))
			lastK = row.K
		}
		fmt.Fprintf(&b, "%4s | %-8s %9d %9d | %s\n",
			kCol, row.Routine, row.SpilledOld, row.SpilledNew, cyc)
	}
	return b.String()
}
