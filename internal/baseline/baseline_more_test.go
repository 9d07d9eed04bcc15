package baseline

import (
	"math/rand"
	"testing"

	"lowmemroute/internal/congest"
	"lowmemroute/internal/dataplane"
	"lowmemroute/internal/graph"
	"lowmemroute/internal/tz"
)

func TestLP15SizesMatchCentralizedTZ(t *testing.T) {
	// The LP15 row of Table 1 has the same table/label sizes as TZ01b;
	// only its round complexity differs. Sizes must be in the same ballpark
	// (the hierarchies are sampled independently, so allow a small band).
	g := testGraph(t, graph.FamilyErdosRenyi, 150, 51)
	sim := congest.New(g)
	lp, err := BuildLP15(sim, Options{K: 2, Seed: 52})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := tz.Build(g, tz.Options{K: 2, Seed: 52})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := ref.MaxTableWords()/2, ref.MaxTableWords()*2
	if w := lp.MaxTableWords(); w < lo || w > hi {
		t.Fatalf("LP15 tables %d outside [%d,%d]", w, lo, hi)
	}
	if lp.MaxLabelWords() > 2*ref.MaxLabelWords() {
		t.Fatalf("LP15 labels %d vs TZ %d", lp.MaxLabelWords(), ref.MaxLabelWords())
	}
}

func TestLP15SelfRoute(t *testing.T) {
	g := testGraph(t, graph.FamilyErdosRenyi, 50, 53)
	s, err := BuildLP15(congest.New(g), Options{K: 2, Seed: 54})
	if err != nil {
		t.Fatal(err)
	}
	tab := dataplane.Compile(s)
	path, w, err := tab.Route(3, 3)
	if err != nil || len(path) != 1 || w != 0 {
		t.Fatalf("self route: %v %v %v", path, w, err)
	}
}

func TestLP15ChargesClusterMemory(t *testing.T) {
	g := testGraph(t, graph.FamilyErdosRenyi, 150, 55)
	sim := congest.New(g)
	s, err := BuildLP15(sim, Options{K: 3, Seed: 56})
	if err != nil {
		t.Fatal(err)
	}
	// Memory should at least cover the largest table (everything stored).
	if sim.PeakMemory() < int64(s.MaxTableWords()) {
		t.Fatalf("peak %d below table size %d", sim.PeakMemory(), s.MaxTableWords())
	}
}

func TestEN16bK1(t *testing.T) {
	// k=1: single level, clusters are full SSSP trees; routing exact.
	g := testGraph(t, graph.FamilyErdosRenyi, 60, 57)
	sim := congest.New(g)
	s, err := BuildEN16b(sim, Options{K: 1, Seed: 58})
	if err != nil {
		t.Fatal(err)
	}
	exact := g.AllPairs()
	r := rand.New(rand.NewSource(59))
	for trial := 0; trial < 50; trial++ {
		u, v := r.Intn(g.N()), r.Intn(g.N())
		if u == v {
			continue
		}
		_, w, err := s.Route(u, v)
		if err != nil {
			t.Fatalf("route %d->%d: %v", u, v, err)
		}
		if w != exact[u][v] {
			t.Fatalf("k=1 route %d->%d weight %v want %v", u, v, w, exact[u][v])
		}
	}
}

func TestEN16bDeterministic(t *testing.T) {
	g := testGraph(t, graph.FamilyErdosRenyi, 80, 60)
	run := func() (int64, int) {
		sim := congest.New(g)
		s, err := BuildEN16b(sim, Options{K: 2, Seed: 61})
		if err != nil {
			t.Fatal(err)
		}
		return sim.Rounds(), s.MaxLabelWords()
	}
	r1, l1 := run()
	r2, l2 := run()
	if r1 != r2 || l1 != l2 {
		t.Fatalf("nondeterministic: %d/%d vs %d/%d", r1, l1, r2, l2)
	}
}

func TestEN16bRoundsCarryLogLambda(t *testing.T) {
	// The EN16b round model multiplies by log Λ: the same topology with a
	// huge aspect ratio must be charged more rounds.
	r := rand.New(rand.NewSource(62))
	small := graph.ErdosRenyi(100, 0.08, graph.IntegerWeights(2), r)
	r2 := rand.New(rand.NewSource(62))
	big := graph.ErdosRenyi(100, 0.08, graph.UniformWeights(1, 1e9), r2)

	rounds := func(g *graph.Graph) int64 {
		sim := congest.New(g)
		if _, err := BuildEN16b(sim, Options{K: 2, Seed: 63}); err != nil {
			t.Fatal(err)
		}
		return sim.Rounds()
	}
	if rb, rs := rounds(big), rounds(small); rb <= rs {
		t.Fatalf("log-lambda dependence missing: big=%d small=%d", rb, rs)
	}
}
