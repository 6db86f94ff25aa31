// Package dataflow implements the bit-vector dataflow analyses the
// allocator depends on: live-variable analysis (which builds the
// interference graph) and reaching definitions (which builds webs in
// the renumbering pass).
package dataflow

import (
	"regalloc/internal/bitset"
	"regalloc/internal/ir"
)

// Liveness holds per-block live-in/live-out sets over virtual
// registers: over all of them (ComputeLiveness), or over a chosen few
// (ComputeLivenessOf), in which case Bit gives a register's position
// in the sets.
type Liveness struct {
	In  []*bitset.Set // indexed by block ID
	Out []*bitset.Set
	// bits maps a register to its bit, -1 for a register outside a
	// restricted solve; nil means register r is bit r.
	bits []int32
}

// Bit returns the position of r in lv's sets, or -1 when lv is a
// restricted solve that leaves r out.
func (lv *Liveness) Bit(r ir.Reg) int {
	if lv.bits == nil {
		return int(r)
	}
	return int(lv.bits[r])
}

// ComputeLiveness runs backward iterative live-variable analysis over
// every register of f.
func ComputeLiveness(f *ir.Func) *Liveness {
	return solve(f, nil, f.NumRegs())
}

// ComputeLivenessOf runs the same analysis over regs alone (distinct
// registers; bit i of each set stands for regs[i]). A register's
// liveness depends only on its own uses and defs, so every bit equals
// the one ComputeLiveness gives the same register; the solve just
// costs far less when regs is a small part of f's registers.
func ComputeLivenessOf(f *ir.Func, regs []ir.Reg) *Liveness {
	bits := make([]int32, f.NumRegs())
	for i := range bits {
		bits[i] = -1
	}
	for i, r := range regs {
		bits[r] = int32(i)
	}
	return solve(f, bits, len(regs))
}

// solve is the one fixpoint behind both entry points: bits maps
// registers onto the nb-bit sets as Liveness.bits does.
func solve(f *ir.Func, bits []int32, nb int) *Liveness {
	n := len(f.Blocks)
	use := make([]*bitset.Set, n)
	def := make([]*bitset.Set, n)
	lv := &Liveness{In: make([]*bitset.Set, n), Out: make([]*bitset.Set, n), bits: bits}

	var ubuf []ir.Reg
	for _, b := range f.Blocks {
		u := bitset.New(nb)
		d := bitset.New(nb)
		for i := range b.Instrs {
			in := &b.Instrs[i]
			ubuf = in.AppendUses(ubuf[:0])
			for _, r := range ubuf {
				if x := lv.Bit(r); x >= 0 && !d.Has(x) {
					u.Add(x)
				}
			}
			if dst := in.Def(); dst != ir.NoReg {
				if x := lv.Bit(dst); x >= 0 {
					d.Add(x)
				}
			}
		}
		use[b.ID] = u
		def[b.ID] = d
		lv.In[b.ID] = bitset.New(nb)
		lv.Out[b.ID] = bitset.New(nb)
	}

	// Iterate to fixpoint; processing blocks in reverse order makes
	// the backward problem converge in very few passes for reducible
	// flow graphs.
	tmp := bitset.New(nb)
	for changed := true; changed; {
		changed = false
		for i := len(f.Blocks) - 1; i >= 0; i-- {
			b := f.Blocks[i]
			out := lv.Out[b.ID]
			for _, s := range b.Succs {
				if out.Union(lv.In[s]) {
					changed = true
				}
			}
			// in = use ∪ (out − def)
			tmp.CopyFrom(out)
			tmp.Subtract(def[b.ID])
			tmp.Union(use[b.ID])
			if !tmp.Equal(lv.In[b.ID]) {
				lv.In[b.ID].CopyFrom(tmp)
				changed = true
			}
		}
	}
	return lv
}

// LiveAcross walks block b backward from its last instruction,
// calling visit with the live set *after* each instruction (i.e. the
// set of registers whose current values are needed later, by Bit
// position). The callback must not retain the set. This is the
// traversal the interference-graph builder uses.
func (lv *Liveness) LiveAcross(f *ir.Func, b *ir.Block, visit func(i int, in *ir.Instr, liveAfter *bitset.Set)) {
	live := lv.Out[b.ID].Copy()
	var ubuf []ir.Reg
	for i := len(b.Instrs) - 1; i >= 0; i-- {
		in := &b.Instrs[i]
		visit(i, in, live)
		// Step backward across in: its def dies, its uses become live.
		if dst := in.Def(); dst != ir.NoReg {
			if x := lv.Bit(dst); x >= 0 {
				live.Remove(x)
			}
		}
		ubuf = in.AppendUses(ubuf[:0])
		for _, r := range ubuf {
			if x := lv.Bit(r); x >= 0 {
				live.Add(x)
			}
		}
	}
}
