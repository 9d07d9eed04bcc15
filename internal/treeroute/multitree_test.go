package treeroute

import (
	"math"
	"math/rand"
	"testing"

	"lowmemroute/internal/congest"
	"lowmemroute/internal/graph"
)

func makeTrees(t *testing.T, g *graph.Graph, roots []int, kind string, seed int64) []*graph.Tree {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	var trees []*graph.Tree
	for _, root := range roots {
		tr, err := graph.SpanningTree(g, root, kind, r)
		if err != nil {
			t.Fatal(err)
		}
		trees = append(trees, tr)
	}
	return trees
}

func TestMultiTreeDuplicateTrees(t *testing.T) {
	// Building the same tree twice in parallel: both schemes must equal
	// the centralized reference (state is fully per-tree).
	r := rand.New(rand.NewSource(1))
	g, err := graph.Generate(graph.FamilyErdosRenyi, 80, r)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := graph.SpanningTree(g, 0, "dfs", r)
	if err != nil {
		t.Fatal(err)
	}
	sim := congest.New(g, congest.WithSeed(2))
	res, err := BuildDistributed(sim, []*graph.Tree{tr, tr}, DistOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	central := BuildCentralized(tr)
	for j := 0; j < 2; j++ {
		// The two builds sample different portals (per-tree RNG draws) but
		// must produce the same final scheme.
		requireSchemesEqual(t, res.Schemes[j], central)
	}
}

func TestMultiTreeOffsetsAreBounded(t *testing.T) {
	// With explicit MaxOffset, the construction still converges and is
	// exact; larger offsets only add rounds.
	r := rand.New(rand.NewSource(3))
	g, err := graph.Generate(graph.FamilyErdosRenyi, 100, r)
	if err != nil {
		t.Fatal(err)
	}
	trees := makeTrees(t, g, []int{0, 10, 20}, "sssp", 4)

	rounds := make(map[int]int64)
	for _, off := range []int{1, 200} {
		sim := congest.New(g, congest.WithSeed(5))
		res, err := BuildDistributed(sim, trees, DistOptions{Seed: 5, MaxOffset: off})
		if err != nil {
			t.Fatal(err)
		}
		for j, tr := range trees {
			requireSchemesEqual(t, res.Schemes[j], BuildCentralized(tr))
		}
		rounds[off] = sim.Rounds()
	}
	if rounds[200] <= rounds[1] {
		t.Fatalf("larger offsets should add rounds: %v", rounds)
	}
}

func TestPortalCountTracksQ(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	g, err := graph.Generate(graph.FamilyErdosRenyi, 400, r)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := graph.SpanningTree(g, 0, "dfs", r)
	if err != nil {
		t.Fatal(err)
	}
	portals := make(map[float64]int)
	for _, q := range []float64{0.02, 0.3} {
		sim := congest.New(g)
		res, err := BuildDistributed(sim, []*graph.Tree{tr}, DistOptions{Q: q, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		portals[q] = res.Portals[0]
	}
	if portals[0.3] <= portals[0.02] {
		t.Fatalf("portal count should grow with q: %v", portals)
	}
	// Rough concentration: q=0.3 should sample within [0.15n, 0.45n].
	if p := portals[0.3]; p < 60 || p > 180 {
		t.Fatalf("q=0.3 sampled %d portals out of 400", p)
	}
}

func TestMultiTreeMemoryScalesWithS(t *testing.T) {
	// Theorem 2 second assertion: memory O(s log n). Doubling the tree
	// count must not blow memory up superlinearly.
	r := rand.New(rand.NewSource(8))
	g, err := graph.Generate(graph.FamilyErdosRenyi, 200, r)
	if err != nil {
		t.Fatal(err)
	}
	peak := make(map[int]int64)
	for _, s := range []int{1, 4} {
		roots := make([]int, s)
		for i := range roots {
			roots[i] = i * 11
		}
		trees := makeTrees(t, g, roots, "sssp", 9)
		sim := congest.New(g, congest.WithSeed(10))
		if _, err := BuildDistributed(sim, trees, DistOptions{Seed: 10}); err != nil {
			t.Fatal(err)
		}
		peak[s] = sim.PeakMemory()
	}
	if peak[4] > 8*peak[1] {
		t.Fatalf("memory grows too fast with s: %v", peak)
	}
}

func TestDistributedWorkerCountInvariance(t *testing.T) {
	// The scheme and the round count must not depend on the number of
	// goroutines executing rounds.
	r := rand.New(rand.NewSource(11))
	g, err := graph.Generate(graph.FamilyErdosRenyi, 150, r)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := graph.SpanningTree(g, 0, "dfs", r)
	if err != nil {
		t.Fatal(err)
	}
	var rounds []int64
	for _, workers := range []int{1, 4} {
		sim := congest.New(g, congest.WithSeed(12), congest.WithShards(workers))
		res, err := BuildDistributed(sim, []*graph.Tree{tr}, DistOptions{Seed: 12})
		if err != nil {
			t.Fatal(err)
		}
		requireSchemesEqual(t, res.Schemes[0], BuildCentralized(tr))
		rounds = append(rounds, sim.Rounds())
	}
	if rounds[0] != rounds[1] {
		t.Fatalf("rounds depend on workers: %v", rounds)
	}
}

func TestLabelWordsLogarithmic(t *testing.T) {
	// Theorem 2: labels O(log n) words. Check across sizes on the
	// label-worst-case family (caterpillars force many light edges).
	r := rand.New(rand.NewSource(13))
	for _, n := range []int{128, 512, 2048} {
		g := graph.Caterpillar(n/4, 3*n/4, graph.UnitWeights, r)
		tr, err := graph.SpanningTree(g, 0, "dfs", r)
		if err != nil {
			t.Fatal(err)
		}
		sim := congest.New(g)
		res, err := BuildDistributed(sim, []*graph.Tree{tr}, DistOptions{Seed: 14})
		if err != nil {
			t.Fatal(err)
		}
		bound := 1 + 2*int(math.Ceil(math.Log2(float64(n))))
		if got := res.Schemes[0].MaxLabelWords(); got > bound {
			t.Fatalf("n=%d: labels %d words exceed O(log n) bound %d", n, got, bound)
		}
	}
}
