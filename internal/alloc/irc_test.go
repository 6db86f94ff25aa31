package alloc_test

import (
	"errors"
	"testing"

	"regalloc/internal/alloc"
	"regalloc/internal/color"
	"regalloc/internal/ir"
	"regalloc/internal/machine"
)

// callSrc has a value (S) live across every call to G, so allocating
// it under a machine model must avoid the caller-saved registers.
const callSrc = `
      REAL FUNCTION G(X)
      REAL X
      G = X * 2.0 + 1.0
      RETURN
      END
      SUBROUTINE TOP(A,N)
      REAL A(*)
      INTEGER I,N
      REAL S
      S = 0.0
      DO I = 1,N
         S = S + G(A(I))
      ENDDO
      A(1) = S
      RETURN
      END
`

func TestIRCAllocatesCleanly(t *testing.T) {
	prog := compile(t, pressureSrc)
	opt := alloc.DefaultOptions()
	opt.Heuristic = color.IRC
	res, err := alloc.Run(prog.Func("HOT"), opt)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < res.Func.NumRegs(); r++ {
		c := res.Colors[r]
		if c < 0 {
			t.Fatalf("register %d uncolored", r)
		}
		k := opt.KInt
		if res.Func.RegClass(ir.Reg(r)) == ir.ClassFloat {
			k = opt.KFloat
		}
		if int(c) >= k {
			t.Fatalf("color %d out of range", c)
		}
	}
	if err := alloc.VerifyAssignment(res.Func, res.Colors); err != nil {
		t.Fatal(err)
	}
}

func TestIRCConvergesUnderPressure(t *testing.T) {
	prog := compile(t, pressureSrc)
	opt := alloc.DefaultOptions()
	opt.Heuristic = color.IRC
	opt.KFloat = 4 // 12 long-lived floats cannot fit in 4 registers
	res, err := alloc.Run(prog.Func("HOT"), opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalSpilled() == 0 {
		t.Fatal("expected spills with 4 float registers")
	}
	if err := alloc.VerifyAssignment(res.Func, res.Colors); err != nil {
		t.Fatal(err)
	}
}

// TestMachineConstrainedHeuristics runs every Figure 4 family plus
// IRC under the RT/PC machine model on a unit with calls, and checks
// the machine oracle on each result: in-range colors and no
// call-crossing value in a caller-saved register.
func TestMachineConstrainedHeuristics(t *testing.T) {
	prog := compile(t, callSrc)
	m := machine.RTPC()
	for _, h := range []color.Heuristic{color.Chaitin, color.Briggs, color.MatulaBeck, color.IRC} {
		opt := alloc.DefaultOptions()
		opt.Heuristic = h
		opt.Machine = m
		res, err := alloc.Run(prog.Func("TOP"), opt)
		if err != nil {
			t.Fatalf("%s: %v", h, err)
		}
		if err := alloc.VerifyAssignmentMachine(res.Func, res.Colors, m); err != nil {
			t.Fatalf("%s: %v", h, err)
		}
	}
}

// TestIRCEliminatesConventionMoves: under the machine model the
// convention bindings coalesce, and the result stays verifiable after
// the rewrite deleted the moves it merged.
func TestIRCMachineAllocates(t *testing.T) {
	prog := compile(t, callSrc)
	m := machine.RTPC()
	opt := alloc.DefaultOptions()
	opt.Heuristic = color.IRC
	opt.Machine = m
	for _, unit := range []string{"G", "TOP"} {
		res, err := alloc.Run(prog.Func(unit), opt)
		if err != nil {
			t.Fatalf("%s: %v", unit, err)
		}
		if err := alloc.VerifyAssignmentMachine(res.Func, res.Colors, m); err != nil {
			t.Fatalf("%s: %v", unit, err)
		}
	}
}

func TestMachineOptionValidation(t *testing.T) {
	prog := compile(t, pressureSrc)
	f := prog.Func("HOT")

	mismatch := alloc.DefaultOptions()
	mismatch.Machine = machine.ForK(8, 4) // disagrees with KInt=16/KFloat=8
	if _, err := alloc.Run(f, mismatch); !errors.Is(err, alloc.ErrBadMachine) {
		t.Fatalf("K mismatch: got %v, want ErrBadMachine", err)
	}

	pcolorOpt := alloc.DefaultOptions()
	pcolorOpt.Machine = machine.RTPC()
	pcolorOpt.Heuristic = color.PColor
	if _, err := alloc.Run(f, pcolorOpt); !errors.Is(err, alloc.ErrBadMachine) {
		t.Fatalf("PColor: got %v, want ErrBadMachine", err)
	}

	ssaOpt := alloc.DefaultOptions()
	ssaOpt.Machine = machine.RTPC()
	ssaOpt.Heuristic = color.SSA
	if _, err := alloc.Run(f, ssaOpt); !errors.Is(err, alloc.ErrBadMachine) {
		t.Fatalf("SSA: got %v, want ErrBadMachine", err)
	}

	ok := alloc.DefaultOptions()
	ok.Machine = machine.RTPC()
	if _, err := alloc.Run(f, ok); err != nil {
		t.Fatalf("valid machine options rejected: %v", err)
	}
}

// TestVerifyAssignmentMachineCatches: a hand-broken coloring that
// parks a call-crossing value in a caller-saved register must fail
// the machine oracle even though the plain oracle accepts it.
func TestVerifyAssignmentMachineCatches(t *testing.T) {
	prog := compile(t, callSrc)
	m := machine.RTPC()
	opt := alloc.DefaultOptions()
	opt.Heuristic = color.Briggs
	opt.Machine = m
	res, err := alloc.Run(prog.Func("TOP"), opt)
	if err != nil {
		t.Fatal(err)
	}
	// Find a float register live across a call (S's web) and move it
	// into a caller-saved register not used by any other float range.
	broken := append([]int16(nil), res.Colors...)
	victim := -1
	for r := 0; r < res.Func.NumRegs(); r++ {
		if res.Func.RegClass(ir.Reg(r)) == ir.ClassFloat && broken[r] >= 0 &&
			!m.IsCallerSaved(ir.ClassFloat, broken[r]) {
			victim = r
			break
		}
	}
	if victim < 0 {
		t.Skip("no callee-saved float range to break")
	}
	inUse := make(map[int16]bool)
	for r := 0; r < res.Func.NumRegs(); r++ {
		if res.Func.RegClass(ir.Reg(r)) == ir.ClassFloat && broken[r] >= 0 {
			inUse[broken[r]] = true
		}
	}
	free := int16(-1)
	for c := int16(0); int(c) < m.CallerSaved[ir.ClassFloat]; c++ {
		if !inUse[c] {
			free = c
			break
		}
	}
	if free < 0 {
		t.Skip("float caller-saved registers all occupied")
	}
	broken[victim] = free
	if err := alloc.VerifyAssignment(res.Func, broken); err != nil {
		t.Fatalf("plain oracle should accept the recolored range: %v", err)
	}
	if err := alloc.VerifyAssignmentMachine(res.Func, broken, m); err == nil {
		t.Fatal("machine oracle missed a call-crossing caller-saved assignment")
	}
}
