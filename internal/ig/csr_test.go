package ig

import (
	"reflect"
	"testing"

	"regalloc/internal/dataflow"
	"regalloc/internal/ir"
)

// legacyAdj is the pre-CSR adjacency representation: per-node append
// vectors fed by the same AddEdge stream. The CSR rows must be
// byte-identical to it — row order is what the simplify worklists
// tie-break on, so any divergence would silently change colorings.
type legacyAdj struct {
	class []ir.Class
	seen  map[uint64]bool
	adj   [][]int32
}

func newLegacyAdj(class []ir.Class) *legacyAdj {
	return &legacyAdj{class: class, seen: map[uint64]bool{}, adj: make([][]int32, len(class))}
}

func (l *legacyAdj) addEdge(a, b int32) {
	if a == b || l.class[a] != l.class[b] {
		return
	}
	k := edgeKey(a, b)
	if l.seen[k] {
		return
	}
	l.seen[k] = true
	l.adj[a] = append(l.adj[a], b)
	l.adj[b] = append(l.adj[b], a)
}

func requireMatchesLegacy(t *testing.T, g *Graph, l *legacyAdj, label string) {
	t.Helper()
	if g.NumEdges() != len(l.seen) {
		t.Fatalf("%s: edges %d != legacy %d", label, g.NumEdges(), len(l.seen))
	}
	for a := 0; a < g.NumNodes(); a++ {
		gn := g.Neighbors(int32(a))
		ln := l.adj[a]
		if len(gn) == 0 && len(ln) == 0 {
			continue
		}
		if !reflect.DeepEqual(gn, ln) {
			t.Fatalf("%s: node %d adjacency differs:\n csr    %v\n legacy %v", label, a, gn, ln)
		}
		if g.Degree(int32(a)) != len(ln) {
			t.Fatalf("%s: node %d degree %d != legacy %d", label, a, g.Degree(int32(a)), len(ln))
		}
	}
}

// TestCSRMatchesLegacyAdjacencyRandomStreams drives identical
// pseudo-random AddEdge streams (with duplicates, self edges, and
// cross-class pairs mixed in) into the CSR graph and the legacy
// model, at sizes on both sides of bitMatrixLimit so the bit-matrix
// and flat-set membership paths are both covered, interleaving
// queries so the lazy recompile path runs too.
func TestCSRMatchesLegacyAdjacencyRandomStreams(t *testing.T) {
	for _, n := range []int{1, 2, 37, 500, bitMatrixLimit, bitMatrixLimit + 1, 5000} {
		classes := make([]ir.Class, n)
		for i := range classes {
			if i%3 == 2 {
				classes[i] = ir.ClassFloat
			}
		}
		g := New(classes)
		l := newLegacyAdj(classes)
		s := uint64(n)*0x9E3779B97F4A7C15 + 1
		next := func() uint64 {
			s ^= s >> 12
			s ^= s << 25
			s ^= s >> 27
			return s * 0x2545F4914F6CDD1D
		}
		edges := 6 * n
		for i := 0; i < edges; i++ {
			a := int32(next() % uint64(n))
			b := int32(next() % uint64(n))
			g.AddEdge(a, b)
			l.addEdge(a, b)
			if g.Interfere(a, b) != (a != b && classes[a] == classes[b]) {
				t.Fatalf("n=%d: Interfere(%d,%d) disagrees with AddEdge contract", n, a, b)
			}
			if i == edges/2 {
				// Query mid-stream: the CSR recompiles and further
				// AddEdges must still land in log order.
				_ = g.Neighbors(a)
			}
		}
		requireMatchesLegacy(t, g, l, "random stream")
	}
}

// TestCSRMatchesLegacyAdjacencyOnCorpus replays the real builder's
// enumeration stream — the same candidate edges BuildWithLiveness
// inserts, in the same order — into the legacy model and checks the
// CSR graph against it on generated functions.
func TestCSRMatchesLegacyAdjacencyOnCorpus(t *testing.T) {
	for _, size := range []int{40, 300, 900} {
		f := giantBlock(t, size)
		lv := dataflow.ComputeLiveness(f)
		g := BuildWithLiveness(f, lv, nil)
		classes := make([]ir.Class, f.NumRegs())
		for i := range classes {
			classes[i] = f.RegClass(ir.Reg(i))
		}
		l := newLegacyAdj(classes)
		for _, b := range f.Blocks {
			enumerateBlock(f, lv, b, func(d, lr int32) {
				l.addEdge(d, lr)
			})
		}
		requireMatchesLegacy(t, g, l, "corpus build")
	}
}

// TestMaxDegree pins the one-pass max-degree helper against the
// per-node scan it replaces.
func TestMaxDegree(t *testing.T) {
	classes := make([]ir.Class, 200)
	g := New(classes)
	s := uint64(99)
	for i := 0; i < 900; i++ {
		s = s*6364136223846793005 + 1442695040888963407
		g.AddEdge(int32(s%200), int32((s>>16)%200))
	}
	want := 0
	for v := 0; v < g.NumNodes(); v++ {
		if d := g.Degree(int32(v)); d > want {
			want = d
		}
	}
	if got := g.MaxDegree(); got != want {
		t.Fatalf("MaxDegree = %d, want %d", got, want)
	}
}

// TestEdgeSetBasics covers the flat membership set directly: growth
// across several doublings, duplicate rejection, and absent-key
// lookups.
func TestEdgeSetBasics(t *testing.T) {
	var s edgeSet
	const n = 10_000
	for i := 1; i <= n; i++ {
		k := edgeKey(int32(i%1000), int32(i))
		if i%1000 == i {
			continue // self edge keys never occur; skip
		}
		if !s.insert(k) {
			t.Fatalf("insert(%d) reported duplicate on first insert", k)
		}
		if s.insert(k) {
			t.Fatalf("insert(%d) accepted a duplicate", k)
		}
		if !s.has(k) {
			t.Fatalf("has(%d) = false after insert", k)
		}
	}
	if s.has(edgeKey(123456, 654321)) {
		t.Fatal("has reported an absent key")
	}
}

// giantBlock builds a function whose instruction count is
// concentrated in one straight-line block, the shape of generated
// numeric code (GRADNT and HSSIAN put >90% of the routine in a single
// block).
func giantBlock(t *testing.T, n int) *ir.Func {
	t.Helper()
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
	last := regs[0]
	b.Instrs = append(b.Instrs, ir.Instr{
		Op: ir.OpRet, Dst: ir.NoReg, A: last, B: ir.NoReg, C: ir.NoReg,
	})
	f.RecomputePreds()
	return f
}
