package irc_test

import (
	"testing"

	"regalloc/internal/color"
	"regalloc/internal/dataflow"
	"regalloc/internal/ig"
	"regalloc/internal/ir"
	"regalloc/internal/irc"
	"regalloc/internal/machine"
)

func kRTPC(c ir.Class) int {
	if c == ir.ClassInt {
		return 16
	}
	return 8
}

func flatCost(n int) []float64 {
	cost := make([]float64, n)
	for i := range cost {
		cost[i] = 1
	}
	return cost
}

// runPlain colors f with no machine model and verifies the coloring
// against the interference graph it was computed from.
func runPlain(t *testing.T, f *ir.Func, kf func(ir.Class) int) *irc.Result {
	t.Helper()
	g := ig.BuildWithLiveness(f, dataflow.ComputeLiveness(f), nil)
	mg := ig.WrapPlain(g)
	res := irc.Color(f, mg, flatCost(mg.NumVRegs), kf, color.CostOverDegree, nil)
	checkColors(t, mg, res, kf)
	return res
}

func checkColors(t *testing.T, mg *ig.MachineGraph, res *irc.Result, kf func(ir.Class) int) {
	t.Helper()
	spilled := make(map[int32]bool)
	for _, v := range res.Spilled {
		spilled[v] = true
	}
	for a := int32(0); int(a) < mg.NumNodes(); a++ {
		c := res.Colors[a]
		if int(a) < mg.NumVRegs && c == color.NoColor {
			if !spilled[a] && !aliasSpilled(res, mg, a, spilled) {
				t.Fatalf("vreg %d uncolored but not spilled", a)
			}
			continue
		}
		if c == color.NoColor {
			continue
		}
		if int(c) >= kf(mg.Class(a)) {
			t.Fatalf("node %d: color %d out of range", a, c)
		}
		for b := a + 1; int(b) < mg.NumNodes(); b++ {
			if mg.Interfere(a, b) && res.Colors[b] == c {
				t.Fatalf("nodes %d and %d interfere but share color %d", a, b, c)
			}
		}
	}
}

// aliasSpilled reports whether a coalesced member's web spilled.
func aliasSpilled(res *irc.Result, mg *ig.MachineGraph, a int32, spilled map[int32]bool) bool {
	// members of a spilled web inherit NoColor without joining Spilled.
	for _, v := range res.Spilled {
		if res.Colors[v] == res.Colors[a] { // both NoColor
			_ = v
			return true
		}
	}
	return false
}

// chainFunc builds a copy chain a = const; b = a; c = b; ret c where
// every copy is coalescable.
func chainFunc() *ir.Func {
	f := &ir.Func{Name: "chain"}
	a := f.NewReg(ir.ClassInt)
	b := f.NewReg(ir.ClassInt)
	c := f.NewReg(ir.ClassInt)
	blk := f.NewBlock()
	blk.Instrs = []ir.Instr{
		{Op: ir.OpConst, Dst: a, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, Imm: 7},
		{Op: ir.OpMove, Dst: b, A: a, B: ir.NoReg, C: ir.NoReg},
		{Op: ir.OpMove, Dst: c, A: b, B: ir.NoReg, C: ir.NoReg},
		{Op: ir.OpRet, Dst: ir.NoReg, A: c, B: ir.NoReg, C: ir.NoReg},
	}
	f.RecomputePreds()
	return f
}

func TestCoalescesCopyChain(t *testing.T) {
	f := chainFunc()
	res := runPlain(t, f, kRTPC)
	if len(res.Spilled) != 0 {
		t.Fatalf("spilled %v on a trivial chain", res.Spilled)
	}
	if res.CoalescedIR != 2 {
		t.Fatalf("CoalescedIR = %d, want 2", res.CoalescedIR)
	}
	deleted := res.ApplyRewrite(f)
	if deleted != 2 {
		t.Fatalf("ApplyRewrite deleted %d moves, want 2", deleted)
	}
	if err := ir.Validate(f); err != nil {
		t.Fatalf("rewritten function invalid: %v", err)
	}
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].IsMove() {
				t.Fatalf("move survived the rewrite: %+v", b.Instrs[i])
			}
		}
	}
}

// TestConstrainedMove: dst and src of a copy are simultaneously live
// afterwards, so the move is constrained and both get distinct colors.
func TestConstrainedMove(t *testing.T) {
	f := &ir.Func{Name: "constrained"}
	a := f.NewReg(ir.ClassInt)
	b := f.NewReg(ir.ClassInt)
	c := f.NewReg(ir.ClassInt)
	blk := f.NewBlock()
	blk.Instrs = []ir.Instr{
		{Op: ir.OpConst, Dst: a, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, Imm: 1},
		{Op: ir.OpMove, Dst: b, A: a, B: ir.NoReg, C: ir.NoReg},
		{Op: ir.OpAdd, Dst: b, A: b, B: b, C: ir.NoReg},
		{Op: ir.OpAdd, Dst: c, A: a, B: b, C: ir.NoReg},
		{Op: ir.OpRet, Dst: ir.NoReg, A: c, B: ir.NoReg, C: ir.NoReg},
	}
	f.RecomputePreds()
	res := runPlain(t, f, kRTPC)
	if res.CoalescedIR != 0 {
		t.Fatalf("coalesced an interfering move (CoalescedIR=%d)", res.CoalescedIR)
	}
	if res.Constrained == 0 {
		t.Fatal("the a->b move interferes; expected a constrained transition")
	}
	if res.Colors[int32(a)] == res.Colors[int32(b)] {
		t.Fatal("interfering move ends share a color")
	}
}

// TestSpillUnderPressure: more simultaneously live values than
// registers forces a spill, and the spilled node is reported.
func TestSpillUnderPressure(t *testing.T) {
	f := &ir.Func{Name: "pressure"}
	var regs []ir.Reg
	for i := 0; i < 4; i++ {
		regs = append(regs, f.NewReg(ir.ClassInt))
	}
	sum := f.NewReg(ir.ClassInt)
	blk := f.NewBlock()
	for i, r := range regs {
		blk.Instrs = append(blk.Instrs, ir.Instr{Op: ir.OpConst, Dst: r, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, Imm: int64(i)})
	}
	blk.Instrs = append(blk.Instrs, ir.Instr{Op: ir.OpAdd, Dst: sum, A: regs[0], B: regs[1], C: ir.NoReg})
	blk.Instrs = append(blk.Instrs, ir.Instr{Op: ir.OpAdd, Dst: sum, A: sum, B: regs[2], C: ir.NoReg})
	blk.Instrs = append(blk.Instrs, ir.Instr{Op: ir.OpAdd, Dst: sum, A: sum, B: regs[3], C: ir.NoReg})
	blk.Instrs = append(blk.Instrs, ir.Instr{Op: ir.OpRet, Dst: ir.NoReg, A: sum, B: ir.NoReg, C: ir.NoReg})
	f.RecomputePreds()

	k2 := func(ir.Class) int { return 2 }
	g := ig.BuildWithLiveness(f, dataflow.ComputeLiveness(f), nil)
	mg := ig.WrapPlain(g)
	res := irc.Color(f, mg, flatCost(mg.NumVRegs), k2, color.CostOverDegree, nil)
	if len(res.Spilled) == 0 {
		t.Fatal("4 values live at once with k=2 must spill")
	}
	checkColors(t, mg, res, k2)
}

// paramRetFunc builds f(p) = p + 1; return — p is an argument and the
// result feeds the return register, so with a machine model both ends
// are convention-bound.
func paramRetFunc() (*ir.Func, ir.Reg, ir.Reg) {
	f := &ir.Func{Name: "inc", HasRet: true, RetCls: ir.ClassInt}
	p := f.NewReg(ir.ClassInt)
	one := f.NewReg(ir.ClassInt)
	r := f.NewReg(ir.ClassInt)
	f.Params = []ir.Reg{p}
	blk := f.NewBlock()
	blk.Instrs = []ir.Instr{
		{Op: ir.OpParam, Dst: p, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, Imm: 0},
		{Op: ir.OpConst, Dst: one, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, Imm: 1},
		{Op: ir.OpAdd, Dst: r, A: p, B: one, C: ir.NoReg},
		{Op: ir.OpRet, Dst: ir.NoReg, A: r, B: ir.NoReg, C: ir.NoReg},
	}
	f.RecomputePreds()
	return f, p, r
}

// TestMachineBindingsPinColors: under a machine model, the parameter
// coalesces with its argument register (George's test against a
// precolored node) and the returned value with the return register.
func TestMachineBindingsPinColors(t *testing.T) {
	f, p, r := paramRetFunc()
	m := machine.RTPC()
	mg := ig.BuildWithMachine(f, dataflow.ComputeLiveness(f), m, nil)
	res := irc.Color(f, mg, flatCost(mg.NumVRegs), m.K, color.CostOverDegree, nil)
	checkColors(t, mg, res, m.K)
	if len(res.Spilled) != 0 {
		t.Fatalf("spilled %v", res.Spilled)
	}
	if res.CoalescedMachine < 2 {
		t.Fatalf("CoalescedMachine = %d, want >= 2 (param and ret bindings)", res.CoalescedMachine)
	}
	if got := res.Colors[int32(p)]; got != m.ArgRegs[ir.ClassInt][0] {
		t.Fatalf("param color = %d, want argument register %d", got, m.ArgRegs[ir.ClassInt][0])
	}
	if got := res.Colors[int32(r)]; got != m.RetReg[ir.ClassInt] {
		t.Fatalf("result color = %d, want return register %d", got, m.RetReg[ir.ClassInt])
	}
	// The rewrite keeps virtual names for webs pinned to physical
	// registers and must leave a valid function behind.
	res.ApplyRewrite(f)
	if err := ir.Validate(f); err != nil {
		t.Fatalf("rewritten function invalid: %v", err)
	}
}

// TestCallCrossingPrefersCalleeSaved: a value live across a call must
// not land in a caller-saved register.
func TestCallCrossingPrefersCalleeSaved(t *testing.T) {
	f := &ir.Func{Name: "cross"}
	a := f.NewReg(ir.ClassInt)
	b := f.NewReg(ir.ClassInt)
	blk := f.NewBlock()
	blk.Instrs = []ir.Instr{
		{Op: ir.OpConst, Dst: a, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, Imm: 3},
		{Op: ir.OpCall, Dst: b, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, Callee: "g"},
		{Op: ir.OpAdd, Dst: b, A: a, B: b, C: ir.NoReg},
		{Op: ir.OpRet, Dst: ir.NoReg, A: b, B: ir.NoReg, C: ir.NoReg},
	}
	f.RecomputePreds()
	m := machine.RTPC()
	mg := ig.BuildWithMachine(f, dataflow.ComputeLiveness(f), m, nil)
	res := irc.Color(f, mg, flatCost(mg.NumVRegs), m.K, color.CostOverDegree, nil)
	checkColors(t, mg, res, m.K)
	if len(res.Spilled) != 0 {
		t.Fatalf("spilled %v", res.Spilled)
	}
	if c := res.Colors[int32(a)]; m.IsCallerSaved(ir.ClassInt, c) {
		t.Fatalf("call-crossing value colored caller-saved r%d", c)
	}
}

// TestSpillTempCoalescePolicy: moves in and out of spill temporaries
// keep their FlagSpillTemp ends out of the default move worklist (a
// later spill round must never be forced to spill a widened
// temporary web), while Opts.CoalesceSpillTemps admits them on a
// terminal round. Either way the copy disappears from the rewritten
// code: if the worklist machine did not merge it, move-biased select
// parks both ends on one color and ApplyRewrite elides it.
func TestSpillTempCoalescePolicy(t *testing.T) {
	mk := func() (*ir.Func, ir.Reg, ir.Reg) {
		f := &ir.Func{Name: "spilltemp"}
		a := f.NewReg(ir.ClassInt)
		tmp := f.NewSpillTemp(ir.ClassInt)
		blk := f.NewBlock()
		blk.Instrs = []ir.Instr{
			{Op: ir.OpConst, Dst: a, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, Imm: 5},
			{Op: ir.OpMove, Dst: tmp, A: a, B: ir.NoReg, C: ir.NoReg},
			{Op: ir.OpRet, Dst: ir.NoReg, A: tmp, B: ir.NoReg, C: ir.NoReg},
		}
		f.RecomputePreds()
		return f, a, tmp
	}

	f, _, _ := mk()
	res := runPlain(t, f, kRTPC)
	if res.CoalescedIR != 0 {
		t.Fatalf("default round coalesced a spill-temp move (CoalescedIR=%d)", res.CoalescedIR)
	}
	if deleted := res.ApplyRewrite(f); deleted != 1 {
		t.Fatalf("color elision deleted %d moves, want 1", deleted)
	}

	f, _, _ = mk()
	g := ig.BuildWithLiveness(f, dataflow.ComputeLiveness(f), nil)
	mg := ig.WrapPlain(g)
	res = irc.ColorWith(f, mg, flatCost(mg.NumVRegs), kRTPC, color.CostOverDegree, nil, irc.Opts{CoalesceSpillTemps: true})
	checkColors(t, mg, res, kRTPC)
	if res.CoalescedIR != 1 {
		t.Fatalf("terminal round left the spill-temp move uncoalesced (CoalescedIR=%d)", res.CoalescedIR)
	}
	if deleted := res.ApplyRewrite(f); deleted != 1 {
		t.Fatalf("rewrite deleted %d moves, want 1", deleted)
	}
}

// TestDeterministic: two runs over the same function produce
// identical colorings and statistics.
func TestDeterministic(t *testing.T) {
	f := chainFunc()
	g1 := ig.BuildWithLiveness(f, dataflow.ComputeLiveness(f), nil)
	g2 := ig.BuildWithLiveness(f, dataflow.ComputeLiveness(f), nil)
	r1 := irc.Color(f, ig.WrapPlain(g1), flatCost(3), kRTPC, color.CostOverDegree, nil)
	r2 := irc.Color(f, ig.WrapPlain(g2), flatCost(3), kRTPC, color.CostOverDegree, nil)
	if len(r1.Colors) != len(r2.Colors) {
		t.Fatal("color slices differ in length")
	}
	for i := range r1.Colors {
		if r1.Colors[i] != r2.Colors[i] {
			t.Fatalf("node %d: %d vs %d across runs", i, r1.Colors[i], r2.Colors[i])
		}
	}
	if r1.CoalescedIR != r2.CoalescedIR || r1.Frozen != r2.Frozen {
		t.Fatal("statistics differ across runs")
	}
}
