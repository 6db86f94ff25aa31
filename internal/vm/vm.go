// Package vm simulates the target machine: it executes assembled
// programs (package asm) over a flat word-addressed memory, counting
// cycles with the model in package target. The simulator stands in
// for the paper's IBM RT/PC; it produces the dynamic measurements
// (Figure 5's runtime improvement column and Figure 6's quicksort
// running times) deterministically.
package vm

import (
	"fmt"
	"io"
	"math"

	"regalloc/internal/asm"
	"regalloc/internal/ir"
	"regalloc/internal/target"
)

// Value is a scalar argument or result.
type Value struct {
	Cls ir.Class
	I   int64
	F   float64
}

// Int returns an integer Value.
func Int(v int64) Value { return Value{Cls: ir.ClassInt, I: v} }

// Float returns a floating-point Value.
func Float(v float64) Value { return Value{Cls: ir.ClassFloat, F: v} }

// VM is a simulator instance. Memory is shared across calls, so a
// driver can initialize argument arrays, run, and inspect results.
type VM struct {
	prog *asm.Program
	Mem  []uint64
	// Cycles accumulates across calls.
	Cycles uint64
	// MaxCycles aborts runaway programs (default 4e9).
	MaxCycles uint64
	// MaxDepth bounds call nesting (default 64).
	MaxDepth int
	// Trace, when set, receives a line per executed instruction —
	// the debugging view of a run. Tracing a long simulation is
	// enormous; use it on small reproductions.
	Trace io.Writer

	depth int
}

// New returns a VM for prog with the given memory size in words.
func New(prog *asm.Program, memWords int) *VM {
	return &VM{prog: prog, Mem: make([]uint64, memWords), MaxCycles: 4e9, MaxDepth: 64}
}

// LoadFloat reads the float at word address a.
func (vm *VM) LoadFloat(a int64) float64 { return math.Float64frombits(vm.Mem[a]) }

// StoreFloat writes the float v at word address a.
func (vm *VM) StoreFloat(a int64, v float64) { vm.Mem[a] = math.Float64bits(v) }

// LoadInt reads the integer at word address a.
func (vm *VM) LoadInt(a int64) int64 { return int64(vm.Mem[a]) }

// StoreInt writes the integer v at word address a.
func (vm *VM) StoreInt(a int64, v int64) { vm.Mem[a] = uint64(v) }

// Call runs the named function with the given arguments and returns
// its result (the zero Value for subroutines).
func (vm *VM) Call(name string, args ...Value) (Value, error) {
	f := vm.prog.Func(name)
	if f == nil {
		return Value{}, fmt.Errorf("vm: no function %s", name)
	}
	if len(args) != len(f.ParamCls) {
		return Value{}, fmt.Errorf("vm: %s expects %d args, got %d", name, len(f.ParamCls), len(args))
	}
	vm.depth++
	defer func() { vm.depth-- }()
	if vm.depth > vm.MaxDepth {
		return Value{}, fmt.Errorf("vm: call depth exceeded at %s", name)
	}
	return vm.run(f, args)
}

func (vm *VM) run(f *asm.Func, args []Value) (Value, error) {
	gpr := make([]int64, f.Machine.NumGPR)
	fpr := make([]float64, f.Machine.NumFPR)
	code := f.Code
	pc := int32(0)

	addr := func(in *asm.Instr) (int64, error) {
		a := in.Imm
		if in.B != asm.NoReg {
			a += gpr[in.B]
		}
		if in.C != asm.NoReg {
			a += gpr[in.C]
		}
		if a < 0 || a >= int64(len(vm.Mem)) {
			return 0, fmt.Errorf("vm: %s pc=%d: address %d out of range", f.Name, pc, a)
		}
		return a, nil
	}

	for {
		if pc < 0 || int(pc) >= len(code) {
			return Value{}, fmt.Errorf("vm: %s: pc %d out of range", f.Name, pc)
		}
		in := &code[pc]
		vm.Cycles += target.Cycles(in.Op)
		if vm.Cycles > vm.MaxCycles {
			return Value{}, fmt.Errorf("vm: cycle limit exceeded in %s", f.Name)
		}
		if vm.Trace != nil {
			fmt.Fprintf(vm.Trace, "%s:%d\t%s\n", f.Name, pc, in.String())
		}
		switch in.Op {
		case ir.OpNop:
		case ir.OpParam:
			v := args[in.Imm]
			if in.Cls == ir.ClassFloat {
				fpr[in.Dst] = v.F
			} else {
				gpr[in.Dst] = v.I
			}
		case ir.OpConst:
			if in.Cls == ir.ClassFloat {
				fpr[in.Dst] = in.FImm
			} else {
				gpr[in.Dst] = in.Imm
			}
		case ir.OpMove:
			if in.Cls == ir.ClassFloat {
				fpr[in.Dst] = fpr[in.A]
			} else {
				gpr[in.Dst] = gpr[in.A]
			}
		case ir.OpItoF:
			fpr[in.Dst] = float64(gpr[in.A])
		case ir.OpFtoI:
			gpr[in.Dst] = int64(fpr[in.A])
		case ir.OpAdd:
			gpr[in.Dst] = gpr[in.A] + gpr[in.B]
		case ir.OpSub:
			gpr[in.Dst] = gpr[in.A] - gpr[in.B]
		case ir.OpMul:
			gpr[in.Dst] = gpr[in.A] * gpr[in.B]
		case ir.OpDiv:
			if gpr[in.B] == 0 {
				return Value{}, fmt.Errorf("vm: %s pc=%d: integer division by zero", f.Name, pc)
			}
			gpr[in.Dst] = gpr[in.A] / gpr[in.B]
		case ir.OpMod:
			if gpr[in.B] == 0 {
				return Value{}, fmt.Errorf("vm: %s pc=%d: MOD by zero", f.Name, pc)
			}
			gpr[in.Dst] = gpr[in.A] % gpr[in.B]
		case ir.OpNeg:
			gpr[in.Dst] = -gpr[in.A]
		case ir.OpIMin:
			gpr[in.Dst] = min64(gpr[in.A], gpr[in.B])
		case ir.OpIMax:
			gpr[in.Dst] = max64(gpr[in.A], gpr[in.B])
		case ir.OpIAbs:
			gpr[in.Dst] = abs64(gpr[in.A])
		case ir.OpISign:
			gpr[in.Dst] = sign64(gpr[in.A], gpr[in.B])
		case ir.OpIPow:
			gpr[in.Dst] = ipow(gpr[in.A], gpr[in.B])
		case ir.OpAddI:
			gpr[in.Dst] = gpr[in.A] + in.Imm
		case ir.OpMulI:
			gpr[in.Dst] = gpr[in.A] * in.Imm
		case ir.OpFAdd:
			fpr[in.Dst] = fpr[in.A] + fpr[in.B]
		case ir.OpFSub:
			fpr[in.Dst] = fpr[in.A] - fpr[in.B]
		case ir.OpFMul:
			fpr[in.Dst] = fpr[in.A] * fpr[in.B]
		case ir.OpFDiv:
			fpr[in.Dst] = fpr[in.A] / fpr[in.B]
		case ir.OpFNeg:
			fpr[in.Dst] = -fpr[in.A]
		case ir.OpFMin:
			fpr[in.Dst] = math.Min(fpr[in.A], fpr[in.B])
		case ir.OpFMax:
			fpr[in.Dst] = math.Max(fpr[in.A], fpr[in.B])
		case ir.OpFAbs:
			fpr[in.Dst] = math.Abs(fpr[in.A])
		case ir.OpFSqrt:
			fpr[in.Dst] = math.Sqrt(fpr[in.A])
		case ir.OpFExp:
			fpr[in.Dst] = math.Exp(fpr[in.A])
		case ir.OpFLog:
			fpr[in.Dst] = math.Log(fpr[in.A])
		case ir.OpFSin:
			fpr[in.Dst] = math.Sin(fpr[in.A])
		case ir.OpFCos:
			fpr[in.Dst] = math.Cos(fpr[in.A])
		case ir.OpFSign:
			fpr[in.Dst] = fsign(fpr[in.A], fpr[in.B])
		case ir.OpFMod:
			fpr[in.Dst] = math.Mod(fpr[in.A], fpr[in.B])
		case ir.OpFPow:
			fpr[in.Dst] = math.Pow(fpr[in.A], fpr[in.B])
		case ir.OpLoad:
			a, err := addr(in)
			if err != nil {
				return Value{}, err
			}
			if in.Cls == ir.ClassFloat {
				fpr[in.Dst] = math.Float64frombits(vm.Mem[a])
			} else {
				gpr[in.Dst] = int64(vm.Mem[a])
			}
		case ir.OpStore:
			a, err := addr(in)
			if err != nil {
				return Value{}, err
			}
			if in.Cls == ir.ClassFloat {
				vm.Mem[a] = math.Float64bits(fpr[in.A])
			} else {
				vm.Mem[a] = uint64(gpr[in.A])
			}
		case ir.OpBr:
			vm.Cycles += target.TakenBranchExtra
			pc = in.T0
			continue
		case ir.OpBrIf:
			var taken bool
			if in.Cls == ir.ClassFloat {
				taken = fcmp(in.Cmp, fpr[in.A], fpr[in.B])
			} else {
				taken = icmp(in.Cmp, gpr[in.A], gpr[in.B])
			}
			if taken {
				vm.Cycles += target.TakenBranchExtra
				pc = in.T0
				continue
			}
		case ir.OpRet:
			if in.A == asm.NoReg {
				return Value{}, nil
			}
			if in.ACls == ir.ClassFloat {
				return Float(fpr[in.A]), nil
			}
			return Int(gpr[in.A]), nil
		case ir.OpCall:
			callArgs := make([]Value, len(in.Args))
			for i, a := range in.Args {
				if a.Cls == ir.ClassFloat {
					callArgs[i] = Float(fpr[a.R])
				} else {
					callArgs[i] = Int(gpr[a.R])
				}
			}
			ret, err := vm.Call(in.Callee, callArgs...)
			if err != nil {
				return Value{}, err
			}
			if in.Dst != asm.NoReg {
				if in.Cls == ir.ClassFloat {
					fpr[in.Dst] = ret.F
				} else {
					gpr[in.Dst] = ret.I
				}
			}
		default:
			return Value{}, fmt.Errorf("vm: %s pc=%d: unexecutable op %s", f.Name, pc, in.Op)
		}
		pc++
	}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func abs64(a int64) int64 {
	if a < 0 {
		return -a
	}
	return a
}

// sign64 is FORTRAN's ISIGN: |a| with the sign of b (b==0 counts as
// positive).
func sign64(a, b int64) int64 {
	if b < 0 {
		return -abs64(a)
	}
	return abs64(a)
}

func fsign(a, b float64) float64 {
	if math.Signbit(b) {
		return -math.Abs(a)
	}
	return math.Abs(a)
}

func ipow(a, b int64) int64 {
	if b < 0 {
		// Integer exponentiation truncates toward zero; only
		// a == ±1 survives a negative exponent.
		switch a {
		case 1:
			return 1
		case -1:
			if b%2 == 0 {
				return 1
			}
			return -1
		default:
			return 0
		}
	}
	r := int64(1)
	for ; b > 0; b-- {
		r *= a
	}
	return r
}

func icmp(c ir.Cmp, a, b int64) bool {
	switch c {
	case ir.CmpEQ:
		return a == b
	case ir.CmpNE:
		return a != b
	case ir.CmpLT:
		return a < b
	case ir.CmpLE:
		return a <= b
	case ir.CmpGT:
		return a > b
	default:
		return a >= b
	}
}

func fcmp(c ir.Cmp, a, b float64) bool {
	switch c {
	case ir.CmpEQ:
		return a == b
	case ir.CmpNE:
		return a != b
	case ir.CmpLT:
		return a < b
	case ir.CmpLE:
		return a <= b
	case ir.CmpGT:
		return a > b
	default:
		return a >= b
	}
}
