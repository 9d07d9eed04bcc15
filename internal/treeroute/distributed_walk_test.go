package treeroute_test

// The distributed construction's schemes walked on their compiled tables:
// every sampled walk is exactly the tree path.

import (
	"math/rand"
	"testing"

	"lowmemroute/internal/congest"
	"lowmemroute/internal/graph"
	"lowmemroute/internal/treeroute"
)

func TestDistributedMatchesCentralizedShapes(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	shapes := []struct {
		name string
		g    *graph.Graph
	}{
		{"path", graph.Path(80, graph.UnitWeights, r)},
		{"star", graph.Star(80, graph.UnitWeights, r)},
		{"balanced", graph.BalancedTree(81, 3, graph.UnitWeights, r)},
		{"caterpillar", graph.Caterpillar(25, 75, graph.UnitWeights, r)},
		{"random", graph.RandomTree(90, graph.UnitWeights, r)},
	}
	for _, tt := range shapes {
		t.Run(tt.name, func(t *testing.T) {
			tr, err := graph.SpanningTree(tt.g, 0, "dfs", r)
			if err != nil {
				t.Fatal(err)
			}
			dist, central, sim := treeroute.BuildBoth(t, tt.g, tr, treeroute.DistOptions{Seed: 3})
			treeroute.RequireSchemesEqual(t, dist, central)
			if err := treeroute.VerifyExact(compiledWalk(dist, tr, sim.Topo()), tr, treeroute.SamplePairs(tr, 60, r)); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestDistributedTreeOnGeneralGraph(t *testing.T) {
	// The tree is a DFS spanning tree (deep) of a well-connected graph
	// (shallow D): the regime the paper targets.
	r := rand.New(rand.NewSource(21))
	g, err := graph.Generate(graph.FamilyErdosRenyi, 200, r)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := graph.SpanningTree(g, 5, "dfs", r)
	if err != nil {
		t.Fatal(err)
	}
	dist, central, sim := treeroute.BuildBoth(t, g, tr, treeroute.DistOptions{Seed: 13})
	treeroute.RequireSchemesEqual(t, dist, central)
	if err := treeroute.VerifyExact(compiledWalk(dist, tr, sim.Topo()), tr, treeroute.SamplePairs(tr, 100, r)); err != nil {
		t.Fatal(err)
	}
}

func TestDistributedMultiTree(t *testing.T) {
	// Several overlapping trees built in parallel: all must match their
	// centralized references.
	r := rand.New(rand.NewSource(55))
	g, err := graph.Generate(graph.FamilyGeometric, 150, r)
	if err != nil {
		t.Fatal(err)
	}
	var trees []*graph.Tree
	for _, root := range []int{0, 17, 42, 99} {
		tr, err := graph.SpanningTree(g, root, "sssp", r)
		if err != nil {
			t.Fatal(err)
		}
		trees = append(trees, tr)
	}
	sim := congest.New(g, congest.WithSeed(5))
	res, err := treeroute.BuildDistributed(sim, trees, treeroute.DistOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for j, tr := range trees {
		treeroute.RequireSchemesEqual(t, res.Schemes[j], treeroute.BuildCentralized(tr))
		if err := treeroute.VerifyExact(compiledWalk(res.Schemes[j], tr, sim.Topo()), tr, treeroute.SamplePairs(tr, 40, r)); err != nil {
			t.Fatalf("tree %d: %v", j, err)
		}
	}
	if len(res.Portals) != 4 {
		t.Fatalf("Portals=%v", res.Portals)
	}
	for j, p := range res.Portals {
		if p < 1 {
			t.Fatalf("tree %d has %d portals", j, p)
		}
	}
}
