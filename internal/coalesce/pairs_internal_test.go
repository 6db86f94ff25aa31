package coalesce

import (
	"testing"

	"regalloc/internal/dataflow"
	"regalloc/internal/fuzzgen"
	"regalloc/internal/ig"
	"regalloc/internal/ir"
	"regalloc/internal/irgen"
	"regalloc/internal/liverange"
	"regalloc/internal/parser"
	"regalloc/internal/sem"
	"regalloc/internal/workloads"
)

// lower runs mini-FORTRAN source through the front end (the root
// package's Compile imports this one) and renumbers every routine
// into webs, the form the allocator hands the coalescer.
func lower(t *testing.T, name, src string) []*ir.Func {
	t.Helper()
	astProg, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("%s: parse: %v", name, err)
	}
	info, err := sem.Check(astProg)
	if err != nil {
		t.Fatalf("%s: check: %v", name, err)
	}
	irProg, err := irgen.Gen(astProg, info, irgen.DefaultStaticStart)
	if err != nil {
		t.Fatalf("%s: lower: %v", name, err)
	}
	for _, f := range irProg.Funcs {
		liverange.Renumber(f)
	}
	return irProg.Funcs
}

// giantBlock builds a function of one long straight-line block over
// 40 registers, one instruction in five a copy: the shape of the
// generated CEDETA routines, dense in copies whose ends interfere.
func giantBlock(n int) *ir.Func {
	f := &ir.Func{Name: "GIANT"}
	regs := make([]ir.Reg, 40)
	for i := range regs {
		regs[i] = f.NewReg(ir.ClassInt)
	}
	b := f.NewBlock()
	for i := range regs {
		b.Instrs = append(b.Instrs, ir.Instr{
			Op: ir.OpConst, Dst: regs[i],
			A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, Imm: int64(i),
		})
	}
	rng := uint64(7)
	for i := 0; i < n; i++ {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		d := regs[rng%uint64(len(regs))]
		a := regs[(rng>>8)%uint64(len(regs))]
		c := regs[(rng>>16)%uint64(len(regs))]
		if rng%5 == 0 {
			b.Instrs = append(b.Instrs, ir.Instr{
				Op: ir.OpMove, Dst: d, A: a, B: ir.NoReg, C: ir.NoReg,
			})
		} else {
			b.Instrs = append(b.Instrs, ir.Instr{
				Op: ir.OpAdd, Dst: d, A: a, B: c, C: ir.NoReg,
			})
		}
	}
	b.Instrs = append(b.Instrs, ir.Instr{
		Op: ir.OpRet, Dst: ir.NoReg, A: regs[0], B: ir.NoReg, C: ir.NoReg,
	})
	f.RecomputePreds()
	return f
}

// TestPairQueryMatchesGraph is the oracle for the move-pair query the
// coalescing rounds stand on. Liveness solved over the candidate
// registers alone must equal the full solve on each of them at every
// block's In and Out, and the pair query — over the full liveness or
// the restricted one — must answer every candidate copy exactly as
// the full interference graph's Interfere does. The corpus routines
// keep many copies whose source stays live past them, the case the
// copy-source exception decides.
func TestPairQueryMatchesGraph(t *testing.T) {
	funcs := []*ir.Func{giantBlock(900)}
	for seed := uint64(1); seed <= 8; seed++ {
		funcs = append(funcs, lower(t, "fuzz", fuzzgen.Generate(seed, fuzzgen.Config{MaxStmts: 60, MaxDepth: 3}))...)
	}
	for _, w := range append(workloads.All(), workloads.Quicksort()) {
		funcs = append(funcs, lower(t, w.Program, w.Source)...)
	}
	answers := map[bool]int{}
	for _, f := range funcs {
		full := dataflow.ComputeLiveness(f)
		g := ig.BuildWithLiveness(f, full, nil)
		_, cands := candidates(f)
		partners := indexPartners(f.NumRegs(), cands)
		regs := partners.regs()
		restricted := dataflow.ComputeLivenessOf(f, regs)
		for _, b := range f.Blocks {
			for _, r := range regs {
				if full.In[b.ID].Has(int(r)) != restricted.In[b.ID].Has(restricted.Bit(r)) ||
					full.Out[b.ID].Has(int(r)) != restricted.Out[b.ID].Has(restricted.Bit(r)) {
					t.Fatalf("%s: b%d: restricted liveness of %v differs from the full solve", f.Name, b.ID, r)
				}
			}
		}
		for label, lv := range map[string]*dataflow.Liveness{"full": full, "restricted": restricted} {
			got := partners.interfering(f, lv, len(cands))
			for i, c := range cands {
				want := g.Interfere(int32(c.dst), int32(c.src))
				if got[i] != want {
					t.Fatalf("%s (%s liveness): copy %v <- %v: pair query says %v, graph says %v",
						f.Name, label, c.dst, c.src, got[i], want)
				}
				answers[want]++
			}
		}
	}
	if answers[true] == 0 || answers[false] == 0 {
		t.Fatalf("test premise broken: want both interfering and free copies, got %v", answers)
	}
}
