package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGeneratorsConnectedAndValid(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	tests := []struct {
		name string
		g    *Graph
		n    int
	}{
		{"erdos-renyi", ErdosRenyi(100, 0.05, IntegerWeights(10), r), 100},
		{"geometric", RandomGeometricCSR(100, 0.2, r).ToGraph(), 100},
		{"grid", Grid(8, 9, UnitWeights, r), 72},
		{"torus", Torus(6, 6, UnitWeights, r), 36},
		{"barabasi-albert", BarabasiAlbert(100, 3, UnitWeights, r), 100},
		{"path", Path(50, UnitWeights, r), 50},
		{"cycle", Cycle(50, UnitWeights, r), 50},
		{"star", Star(50, UnitWeights, r), 50},
		{"balanced-tree", BalancedTree(63, 2, UnitWeights, r), 63},
		{"caterpillar", Caterpillar(20, 60, UnitWeights, r), 80},
		{"random-tree", RandomTree(70, UnitWeights, r), 70},
		{"hypercube", Hypercube(6, UnitWeights, r), 64},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if tt.g.N() != tt.n {
				t.Fatalf("N=%d want %d", tt.g.N(), tt.n)
			}
			if err := tt.g.Validate(); err != nil {
				t.Fatalf("Validate: %v", err)
			}
			if !tt.g.Connected() {
				t.Fatal("not connected")
			}
		})
	}
}

func TestTreesHaveExactlyNMinusOneEdges(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, n := range []int{2, 3, 10, 100, 257} {
		for _, g := range []*Graph{
			RandomTree(n, UnitWeights, r),
			BalancedTree(n, 3, UnitWeights, r),
		} {
			if g.M() != n-1 {
				t.Fatalf("n=%d: M=%d want %d", n, g.M(), n-1)
			}
			if !g.Connected() {
				t.Fatalf("n=%d: tree not connected", n)
			}
		}
	}
}

func TestRandomTreeTinyCases(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	if g := RandomTree(0, UnitWeights, r); g.N() != 0 || g.M() != 0 {
		t.Fatalf("n=0: %d/%d", g.N(), g.M())
	}
	if g := RandomTree(1, UnitWeights, r); g.N() != 1 || g.M() != 0 {
		t.Fatalf("n=1: %d/%d", g.N(), g.M())
	}
	if g := RandomTree(2, UnitWeights, r); g.M() != 1 {
		t.Fatalf("n=2: M=%d", g.M())
	}
}

// Property: random trees over many seeds are always valid connected trees.
func TestRandomTreeProperty(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		n := int(sz%100) + 2
		g := RandomTree(n, UnitWeights, rand.New(rand.NewSource(seed)))
		return g.M() == n-1 && g.Connected() && g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: Erdős–Rényi generator always yields valid connected graphs
// (thanks to the backbone), for any p in [0,1].
func TestErdosRenyiProperty(t *testing.T) {
	f := func(seed int64, praw uint16, sz uint8) bool {
		n := int(sz%80) + 2
		p := float64(praw) / 65535
		g := ErdosRenyi(n, p, IntegerWeights(10), rand.New(rand.NewSource(seed)))
		return g.Connected() && g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateFamilies(t *testing.T) {
	fams := []Family{
		FamilyErdosRenyi, FamilyGeometric, FamilyGrid,
		FamilyTorus, FamilyPowerLaw, FamilyHypercube,
	}
	for _, f := range fams {
		t.Run(string(f), func(t *testing.T) {
			g, err := Generate(f, 120, rand.New(rand.NewSource(9)))
			if err != nil {
				t.Fatalf("Generate: %v", err)
			}
			if g.N() < 120 {
				t.Fatalf("N=%d want >= 120", g.N())
			}
			if err := g.Validate(); err != nil {
				t.Fatalf("Validate: %v", err)
			}
			if !g.Connected() {
				t.Fatal("not connected")
			}
		})
	}
	if _, err := Generate(Family("nope"), 10, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("unknown family should error")
	}
}

func TestHypercubeStructure(t *testing.T) {
	g := Hypercube(4, UnitWeights, rand.New(rand.NewSource(1)))
	if g.N() != 16 {
		t.Fatalf("N=%d", g.N())
	}
	for v := 0; v < 16; v++ {
		if g.Degree(v) != 4 {
			t.Fatalf("degree(%d)=%d want 4", v, g.Degree(v))
		}
	}
	d, err := g.HopDiameter()
	if err != nil || d != 4 {
		t.Fatalf("diameter=%d err=%v want 4", d, err)
	}
}

func TestDeterminismUnderSeed(t *testing.T) {
	g1 := ErdosRenyi(60, 0.1, IntegerWeights(10), rand.New(rand.NewSource(123)))
	g2 := ErdosRenyi(60, 0.1, IntegerWeights(10), rand.New(rand.NewSource(123)))
	e1, e2 := g1.Edges(), g2.Edges()
	if len(e1) != len(e2) {
		t.Fatalf("edge counts differ: %d vs %d", len(e1), len(e2))
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatalf("edge %d differs: %v vs %v", i, e1[i], e2[i])
		}
	}
}

func TestCaterpillarShape(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	g := Caterpillar(10, 30, UnitWeights, r)
	// Every leg vertex has degree 1.
	for v := 10; v < 40; v++ {
		if g.Degree(v) != 1 {
			t.Fatalf("leg %d has degree %d", v, g.Degree(v))
		}
	}
}
