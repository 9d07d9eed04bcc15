package baseline

import (
	"math/rand"
	"testing"

	"lowmemroute/internal/congest"
	"lowmemroute/internal/core"
	"lowmemroute/internal/dataplane"
	"lowmemroute/internal/graph"
)

func testGraph(t *testing.T, f graph.Family, n int, seed int64) *graph.Graph {
	t.Helper()
	g, err := graph.Generate(f, n, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestLP15RoutesWithBoundedStretch(t *testing.T) {
	for _, k := range []int{2, 3} {
		g := testGraph(t, graph.FamilyErdosRenyi, 140, int64(k))
		sim := congest.New(g)
		s, err := BuildLP15(sim, Options{K: k, Seed: int64(k + 10)})
		if err != nil {
			t.Fatal(err)
		}
		tab := dataplane.Compile(s)
		exact := g.AllPairs()
		bound := float64(4*k - 3)
		r := rand.New(rand.NewSource(int64(k)))
		for trial := 0; trial < 120; trial++ {
			u, v := r.Intn(g.N()), r.Intn(g.N())
			if u == v {
				continue
			}
			_, w, err := tab.Route(u, v)
			if err != nil {
				t.Fatalf("k=%d route %d->%d: %v", k, u, v, err)
			}
			if w/exact[u][v] > bound+1e-9 {
				t.Fatalf("k=%d stretch %v exceeds %v", k, w/exact[u][v], bound)
			}
		}
		if sim.Rounds() == 0 {
			t.Fatal("LP15 should charge rounds")
		}
	}
}

func TestLP15RoundsScaleWithS(t *testing.T) {
	// The LP15 signature: on a heavy-cycle graph whose shortest-path
	// diameter S is ~n while the hop diameter is small, the rounds blow up
	// relative to a well-connected graph of the same size.
	n := 200
	r := rand.New(rand.NewSource(1))
	// Cycle with one heavy edge: S = n-1, D = n/2... use a wheel: cycle
	// plus hub with heavy spokes - D=2 via hub, S large along the rim.
	wheel := graph.New(n)
	for i := 1; i < n; i++ {
		if i+1 < n {
			wheel.MustAddEdge(i, i+1, 1)
		}
		wheel.MustAddEdge(0, i, 1000)
	}
	er := testGraph(t, graph.FamilyErdosRenyi, n, 2)

	rounds := func(g *graph.Graph) int64 {
		sim := congest.New(g)
		if _, err := BuildLP15(sim, Options{K: 2, Seed: 3}); err != nil {
			t.Fatal(err)
		}
		return sim.Rounds()
	}
	rw, re := rounds(wheel), rounds(er)
	if rw < 2*re {
		t.Fatalf("LP15 rounds should blow up with S: wheel=%d er=%d", rw, re)
	}
	_ = r
}

func TestEN16bRoutesWithBoundedStretch(t *testing.T) {
	g := testGraph(t, graph.FamilyErdosRenyi, 120, 5)
	sim := congest.New(g)
	s, err := BuildEN16b(sim, Options{K: 2, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	exact := g.AllPairs()
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 120; trial++ {
		u, v := r.Intn(g.N()), r.Intn(g.N())
		if u == v {
			continue
		}
		path, w, err := s.Route(u, v)
		if err != nil {
			t.Fatalf("route %d->%d: %v", u, v, err)
		}
		if path[len(path)-1] != v {
			t.Fatalf("route %d->%d ends at %d", u, v, path[len(path)-1])
		}
		if w/exact[u][v] > float64(4*2-3)+1e-9 {
			t.Fatalf("stretch %v exceeds %d", w/exact[u][v], 4*2-3)
		}
	}
}

func TestEN16bMemoryExceedsPaper(t *testing.T) {
	// The headline comparison of Table 1: EN16b-style memory is Ω(√n)
	// while the paper's scheme stays Õ(n^{1/k}).
	n, k := 400, 4
	g := testGraph(t, graph.FamilyErdosRenyi, n, 11)

	simB := congest.New(g)
	if _, err := BuildEN16b(simB, Options{K: k, Seed: 12}); err != nil {
		t.Fatal(err)
	}
	simP := congest.New(g, congest.WithSeed(12))
	if _, err := core.Build(simP, core.Options{K: k, Seed: 12}); err != nil {
		t.Fatal(err)
	}
	if 2*simB.PeakMemory() < 3*simP.PeakMemory() {
		t.Fatalf("EN16b peak %d should far exceed the paper's %d",
			simB.PeakMemory(), simP.PeakMemory())
	}
}

func TestEN16bLabelsCarryExtraLogFactor(t *testing.T) {
	n, k := 300, 3
	g := testGraph(t, graph.FamilyErdosRenyi, n, 21)

	simB := congest.New(g)
	b, err := BuildEN16b(simB, Options{K: k, Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	simP := congest.New(g, congest.WithSeed(22))
	p, err := core.Build(simP, core.Options{K: k, Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	if b.MaxLabelWords() <= p.MaxLabelWords() {
		t.Fatalf("EN16b labels (%d words) should exceed the paper's (%d words)",
			b.MaxLabelWords(), p.MaxLabelWords())
	}
	if b.MaxTableWords() == 0 {
		t.Fatal("EN16b tables empty")
	}
}

func TestBaselineErrors(t *testing.T) {
	g := testGraph(t, graph.FamilyErdosRenyi, 20, 31)
	if _, err := BuildLP15(congest.New(g), Options{K: 0}); err == nil {
		t.Fatal("LP15 k=0 should error")
	}
	if _, err := BuildEN16b(congest.New(g), Options{K: 0}); err == nil {
		t.Fatal("EN16b k=0 should error")
	}
}

func TestLP15EmptyGraph(t *testing.T) {
	g := graph.New(0)
	if _, err := BuildLP15(congest.New(g), Options{K: 2}); err != nil {
		t.Fatal(err)
	}
}
