package core

import (
	"math/rand"
	"testing"

	"lowmemroute/internal/clusterroute"
	"lowmemroute/internal/congest"
	"lowmemroute/internal/dataplane"
	"lowmemroute/internal/graph"
	"lowmemroute/internal/treeroute"
)

func TestPhaseRoundsSumToTotal(t *testing.T) {
	g := testGraph(t, graph.FamilyErdosRenyi, 100, 201)
	sim := congest.New(g, congest.WithSeed(202))
	s, err := Build(sim, Options{K: 2, Seed: 202})
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, r := range s.Stats.PhaseRounds {
		sum += r
	}
	if sum != sim.Rounds() {
		t.Fatalf("phase rounds %d != total %d (%v)", sum, sim.Rounds(), s.Stats.PhaseRounds)
	}
	for _, phase := range []string{"exact-pivots", "low-clusters", "hopset", "approx-clusters", "tree-routing"} {
		if _, ok := s.Stats.PhaseRounds[phase]; !ok {
			t.Fatalf("missing phase %q", phase)
		}
	}
}

func TestRouteFailsOnCorruptedTable(t *testing.T) {
	g := testGraph(t, graph.FamilyErdosRenyi, 80, 203)
	s, _ := buildScheme(t, g, 2, 204)
	// Find a pair routed through at least one intermediate vertex.
	var src, dst, mid int
	found := false
	for u := 0; u < g.N() && !found; u++ {
		for v := 0; v < g.N() && !found; v++ {
			path, _, err := s.Route(u, v)
			if err == nil && len(path) >= 3 {
				src, dst, mid = u, v, path[1]
				found = true
			}
		}
	}
	if !found {
		t.Skip("no multi-hop route found")
	}
	// Drop every table at the intermediate vertex and compile again (the
	// table Build compiled is a snapshot): routing must error, not loop or
	// panic.
	s.Tables[mid] = clusterroute.Table{Trees: map[int]treeroute.Table{}}
	if _, _, err := dataplane.Compile(s.Scheme).Route(src, dst); err == nil {
		t.Fatal("routing through a table-less vertex should fail loudly")
	}
}

func TestBetaCapStillRoutes(t *testing.T) {
	// Even with the Bellman-Ford iteration budget capped hard at 2, the
	// scheme must keep routing (top-level clusters have no distance limit,
	// so coverage survives; only approximation quality degrades).
	g := testGraph(t, graph.FamilyErdosRenyi, 100, 205)
	sim := congest.New(g, congest.WithSeed(206))
	s, err := Build(sim, Options{K: 2, Seed: 206, Beta: 2})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(207))
	for trial := 0; trial < 60; trial++ {
		u, v := r.Intn(g.N()), r.Intn(g.N())
		if _, _, err := s.Route(u, v); err != nil {
			t.Fatalf("route %d->%d with capped beta: %v", u, v, err)
		}
	}
	if s.Stats.BetaRealised > 2 {
		t.Fatalf("beta cap ignored: %d", s.Stats.BetaRealised)
	}
}

func TestBScaleControlsHopBudget(t *testing.T) {
	// BScale scales the realised B (capped at n); explorations quiesce on
	// their own, so rounds need not change, but coverage must survive even
	// at a small scale on a well-connected graph.
	g := testGraph(t, graph.FamilyErdosRenyi, 150, 208)
	bs := make(map[float64]int)
	for _, scale := range []float64{0.5, 2.0} {
		sim := congest.New(g, congest.WithSeed(209))
		s, err := Build(sim, Options{K: 2, Seed: 209, BScale: scale})
		if err != nil {
			t.Fatal(err)
		}
		bs[scale] = s.Stats.B
		r := rand.New(rand.NewSource(210))
		for trial := 0; trial < 40; trial++ {
			u, v := r.Intn(g.N()), r.Intn(g.N())
			if _, _, err := s.Route(u, v); err != nil {
				t.Fatalf("scale=%v route %d->%d: %v", scale, u, v, err)
			}
		}
	}
	if bs[2.0] <= bs[0.5] {
		t.Fatalf("B should grow with BScale: %v", bs)
	}
}

func TestUnitWeightGraph(t *testing.T) {
	// Hypercube with unit-ish weights: aspect ratio near 1.
	g := testGraph(t, graph.FamilyHypercube, 128, 210)
	s, _ := buildScheme(t, g, 3, 211)
	exact := g.AllPairs()
	r := rand.New(rand.NewSource(212))
	for trial := 0; trial < 80; trial++ {
		u, v := r.Intn(g.N()), r.Intn(g.N())
		if u == v {
			continue
		}
		_, w, err := s.Route(u, v)
		if err != nil {
			t.Fatalf("route %d->%d: %v", u, v, err)
		}
		if w/exact[u][v] > float64(4*3-3)+0.5 {
			t.Fatalf("hypercube stretch %v", w/exact[u][v])
		}
	}
}

func TestQuantizedGraphStillRoutes(t *testing.T) {
	// The Section 2 adaptation: build on the (1+eps)-quantized graph; the
	// stretch bound degrades by at most (1+eps).
	r := rand.New(rand.NewSource(213))
	g := graph.ErdosRenyi(100, 0.08, graph.UniformWeights(1, 1e5), r)
	eps := 0.1
	q := g.QuantizeWeights(eps)
	sim := congest.New(q, congest.WithSeed(214))
	s, err := Build(sim, Options{K: 2, Seed: 214})
	if err != nil {
		t.Fatal(err)
	}
	exact := g.AllPairs() // stretch measured against the ORIGINAL metric
	bound := (float64(4*2-3) + 0.5) * (1 + eps)
	for trial := 0; trial < 80; trial++ {
		u, v := r.Intn(g.N()), r.Intn(g.N())
		if u == v {
			continue
		}
		_, w, err := s.Route(u, v)
		if err != nil {
			t.Fatalf("route %d->%d: %v", u, v, err)
		}
		if w/exact[u][v] > bound {
			t.Fatalf("quantized stretch %v exceeds %v", w/exact[u][v], bound)
		}
	}
}

func TestLargeKCollapsesToTopLevel(t *testing.T) {
	// k far above log n: most levels are empty; the scheme must still
	// build and route.
	g := testGraph(t, graph.FamilyErdosRenyi, 60, 215)
	sim := congest.New(g, congest.WithSeed(216))
	s, err := Build(sim, Options{K: 8, Seed: 216})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(217))
	for trial := 0; trial < 40; trial++ {
		u, v := r.Intn(g.N()), r.Intn(g.N())
		if _, _, err := s.Route(u, v); err != nil {
			t.Fatalf("route %d->%d: %v", u, v, err)
		}
	}
}

func TestTreeQOverride(t *testing.T) {
	g := testGraph(t, graph.FamilyErdosRenyi, 80, 218)
	sim := congest.New(g, congest.WithSeed(219))
	s, err := Build(sim, Options{K: 2, Seed: 219, TreeQ: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	if s.Stats.TreePortals == 0 {
		t.Fatal("no portals sampled")
	}
	// A high portal rate on many trees should sample a lot of portals.
	if s.Stats.TreePortals < s.Stats.Clusters {
		t.Fatalf("portals %d below cluster count %d at q=0.4",
			s.Stats.TreePortals, s.Stats.Clusters)
	}
}
