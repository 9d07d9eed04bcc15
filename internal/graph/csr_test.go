package graph

import (
	"math/rand"
	"testing"
)

// csrEqual fails the test unless a and b are arc-for-arc identical:
// same vertex count, same edge count, same neighbor order, same weights.
func csrEqual(t *testing.T, a, b *CSR) {
	t.Helper()
	if a.N() != b.N() || a.M() != b.M() {
		t.Fatalf("shape mismatch: (n=%d,m=%d) vs (n=%d,m=%d)", a.N(), a.M(), b.N(), b.M())
	}
	for u := 0; u < a.N(); u++ {
		ta, ba := a.NeighborRange(u)
		tb, bb := b.NeighborRange(u)
		if len(ta) != len(tb) {
			t.Fatalf("vertex %d: degree %d vs %d", u, len(ta), len(tb))
		}
		for i := range ta {
			if ta[i] != tb[i] {
				t.Fatalf("vertex %d arc %d: neighbor %d vs %d", u, i, ta[i], tb[i])
			}
			if wa, wb := a.ArcWeight(ba+i), b.ArcWeight(bb+i); wa != wb {
				t.Fatalf("vertex %d arc %d: weight %v vs %v", u, i, wa, wb)
			}
		}
	}
}

func TestFromGraphPreservesAdjacency(t *testing.T) {
	g := ErdosRenyi(200, 0.05, IntegerWeights(100), rand.New(rand.NewSource(7)))
	c := FromGraph(g)
	if c.N() != g.N() || c.M() != g.M() {
		t.Fatalf("shape: csr (n=%d,m=%d), graph (n=%d,m=%d)", c.N(), c.M(), g.N(), g.M())
	}
	for u := 0; u < g.N(); u++ {
		nbs := g.Neighbors(u)
		to, base := c.NeighborRange(u)
		if len(to) != len(nbs) || c.Degree(u) != len(nbs) {
			t.Fatalf("vertex %d: degree %d vs %d", u, len(to), len(nbs))
		}
		for i, nb := range nbs {
			if int(to[i]) != nb.To || c.ArcWeight(base+i) != nb.Weight {
				t.Fatalf("vertex %d arc %d: (%d,%v) vs (%d,%v)",
					u, i, to[i], c.ArcWeight(base+i), nb.To, nb.Weight)
			}
		}
	}
}

func TestCSRToGraphRoundTrip(t *testing.T) {
	g := ErdosRenyi(150, 0.06, UniformWeights(0.5, 9.5), rand.New(rand.NewSource(11)))
	back := FromGraph(g).ToGraph()
	if back.N() != g.N() || back.M() != g.M() {
		t.Fatalf("round-trip shape mismatch")
	}
	for u := 0; u < g.N(); u++ {
		a, b := g.Neighbors(u), back.Neighbors(u)
		if len(a) != len(b) {
			t.Fatalf("vertex %d: degree %d vs %d", u, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("vertex %d arc %d: %+v vs %+v", u, i, a[i], b[i])
			}
		}
	}
}

func TestCSRWeightClassTable(t *testing.T) {
	g := Grid(8, 8, IntegerWeights(10), rand.New(rand.NewSource(3)))
	c := FromGraph(g)
	if c.WeightClasses() == 0 || c.WeightClasses() > 10 {
		t.Fatalf("expected ≤10 weight classes, got %d", c.WeightClasses())
	}
	if c.MemoryBytes() <= 0 {
		t.Fatalf("MemoryBytes = %d", c.MemoryBytes())
	}
}

// TestStreamingGeneratorsByteIdentical pins the CSR generator paths
// bit-identical — same edge order, same weights, same RNG consumption — to
// the slice-based generators at n ∈ {256, 4096}.
func TestStreamingGeneratorsByteIdentical(t *testing.T) {
	families := []Family{FamilyGrid, FamilyTorus, FamilyPowerLaw, FamilyGeometric, FamilyHypercube, FamilyErdosRenyi}
	for _, n := range []int{256, 4096} {
		for _, f := range families {
			if f == FamilyErdosRenyi && n > 256 {
				continue // quadratic per-pair coin flips; GenerateCSR compacts Generate anyway
			}
			t.Run(string(f)+"/"+itoa(n), func(t *testing.T) {
				const seed = 42
				g, err := Generate(f, n, rand.New(rand.NewSource(seed)))
				if err != nil {
					t.Fatal(err)
				}
				c, err := GenerateCSR(f, n, rand.New(rand.NewSource(seed)))
				if err != nil {
					t.Fatal(err)
				}
				csrEqual(t, FromGraph(g), c)
			})
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// TestStreamingGeneratorsSeedStability locks the deterministic edge stream:
// the same seed must give the same CSR, and different seeds should not.
func TestStreamingGeneratorsSeedStability(t *testing.T) {
	a, err := GenerateCSR(FamilyPowerLaw, 512, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateCSR(FamilyPowerLaw, 512, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	csrEqual(t, a, b)
}

// TestNewTreeCompactMatchesNewTree checks that the compact constructor and
// the host-sized constructor agree on every accessor for the same tree.
func TestNewTreeCompactMatchesNewTree(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	g := ErdosRenyi(100, 0.06, IntegerWeights(10), r)
	tr, err := SpanningTree(g, 3, "sssp", r)
	if err != nil {
		t.Fatal(err)
	}
	members := tr.Members()
	verts := make([]int32, len(members))
	par := make([]int32, len(members))
	for i, v := range members {
		verts[i] = int32(v)
		par[i] = int32(tr.Parent(v))
	}
	ct, err := NewTreeCompact(tr.Root, tr.HostSize(), verts, par)
	if err != nil {
		t.Fatal(err)
	}
	if ct.Size() != tr.Size() || ct.HostSize() != tr.HostSize() {
		t.Fatalf("shape mismatch")
	}
	for v := 0; v < g.N(); v++ {
		if ct.Member(v) != tr.Member(v) || ct.Parent(v) != tr.Parent(v) {
			t.Fatalf("vertex %d: member/parent disagree", v)
		}
		a, b := ct.Children(v), tr.Children(v)
		if len(a) != len(b) {
			t.Fatalf("vertex %d: children %v vs %v", v, a, b)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("vertex %d: children %v vs %v", v, a, b)
			}
		}
	}
	for i, v := range tr.PreOrder() {
		if ct.PreOrder()[i] != v {
			t.Fatalf("preorder slot %d differs", i)
		}
	}
	uw := ct.UpWeights(FromGraph(g))
	for i, v := range members {
		if v == tr.Root {
			continue
		}
		if want, _ := g.EdgeWeight(v, tr.Parent(v)); uw[i] != want {
			t.Fatalf("UpWeights[%d]=%v, edge weight %v", i, uw[i], want)
		}
		if ct.MemberIndex(v) != i || ct.MemberAt(i) != v {
			t.Fatalf("MemberIndex/MemberAt inconsistent at slot %d", i)
		}
	}
}

func TestNewTreeCompactValidation(t *testing.T) {
	cases := []struct {
		name  string
		root  int
		hostN int
		verts []int32
		par   []int32
	}{
		{"root missing", 5, 10, []int32{1, 2}, []int32{2, 1}},
		{"not ascending", 1, 10, []int32{2, 1}, []int32{NoVertex, 2}},
		{"detached", 0, 10, []int32{0, 3}, []int32{NoVertex, 7}},
		{"cycle", 0, 10, []int32{0, 3, 4}, []int32{NoVertex, 4, 3}},
		{"root has parent", 0, 10, []int32{0, 1}, []int32{1, 0}},
		{"out of range member", 0, 3, []int32{0, 5}, []int32{NoVertex, 0}},
	}
	for _, tc := range cases {
		if _, err := NewTreeCompact(tc.root, tc.hostN, tc.verts, tc.par); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}
