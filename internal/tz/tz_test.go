package tz

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

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

func TestBuildErrors(t *testing.T) {
	g := testGraph(t, graph.FamilyErdosRenyi, 20, 1)
	if _, err := Build(g, Options{K: 0}); err == nil {
		t.Fatal("k=0 should error")
	}
}

func TestK1IsShortestPathRouting(t *testing.T) {
	// k=1: A_0 = V, every vertex is a top-level center with an unbounded
	// cluster; routing is exact shortest path (stretch 1 = 4·1-3).
	g := testGraph(t, graph.FamilyErdosRenyi, 60, 2)
	s, err := Build(g, Options{K: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	tab := dataplane.Compile(s.Scheme)
	exact := g.AllPairs()
	r := rand.New(rand.NewSource(4))
	for trial := 0; trial < 100; trial++ {
		u, v := r.Intn(g.N()), r.Intn(g.N())
		_, w, err := tab.Route(u, v)
		if err != nil {
			t.Fatalf("route %d->%d: %v", u, v, err)
		}
		if w != exact[u][v] {
			t.Fatalf("route %d->%d length %v, exact %v", u, v, w, exact[u][v])
		}
	}
}

func TestRoutingAlwaysArrives(t *testing.T) {
	for _, k := range []int{2, 3, 4} {
		g := testGraph(t, graph.FamilyErdosRenyi, 150, int64(k))
		s, err := Build(g, Options{K: k, Seed: int64(10 + k)})
		if err != nil {
			t.Fatal(err)
		}
		tab := dataplane.Compile(s.Scheme)
		r := rand.New(rand.NewSource(int64(k)))
		for trial := 0; trial < 150; trial++ {
			u, v := r.Intn(g.N()), r.Intn(g.N())
			path, _, err := tab.Route(u, v)
			if err != nil {
				t.Fatalf("k=%d route %d->%d: %v", k, u, v, err)
			}
			if path[0] != u {
				t.Fatalf("path starts at %d", path[0])
			}
			if u != v && path[len(path)-1] != v {
				t.Fatalf("k=%d route %d->%d ends at %d", k, u, v, path[len(path)-1])
			}
			for i := 1; i < len(path); i++ {
				if !g.HasEdge(path[i-1], path[i]) {
					t.Fatalf("hop {%d,%d} not an edge", path[i-1], path[i])
				}
			}
		}
	}
}

func TestStretchBound(t *testing.T) {
	for _, tt := range []struct {
		family graph.Family
		n      int
		k      int
	}{
		{graph.FamilyErdosRenyi, 120, 2},
		{graph.FamilyErdosRenyi, 120, 3},
		{graph.FamilyGeometric, 120, 2},
		{graph.FamilyGrid, 100, 3},
	} {
		g := testGraph(t, tt.family, tt.n, 21)
		s, err := Build(g, Options{K: tt.k, Seed: 22})
		if err != nil {
			t.Fatal(err)
		}
		tab := dataplane.Compile(s.Scheme)
		exact := g.AllPairs()
		bound := float64(4*tt.k - 3)
		r := rand.New(rand.NewSource(23))
		for trial := 0; trial < 200; trial++ {
			u, v := r.Intn(g.N()), r.Intn(g.N())
			if u == v {
				continue
			}
			_, w, err := tab.Route(u, v)
			if err != nil {
				t.Fatalf("%s k=%d route %d->%d: %v", tt.family, tt.k, u, v, err)
			}
			if stretch := w / exact[u][v]; stretch > bound+1e-9 {
				t.Fatalf("%s k=%d: stretch %v exceeds %v (%d->%d)",
					tt.family, tt.k, stretch, bound, u, v)
			}
		}
	}
}

func TestClusterMembershipBound(t *testing.T) {
	// Claim 6: whp every vertex is in at most 4 n^{1/k} ln n clusters.
	n, k := 300, 3
	g := testGraph(t, graph.FamilyErdosRenyi, n, 31)
	s, err := Build(g, Options{K: k, Seed: 32})
	if err != nil {
		t.Fatal(err)
	}
	bound := int(4 * math.Pow(float64(n), 1/float64(k)) * math.Log(float64(n)))
	if got := s.MaxClustersPerVertex(); got > bound {
		t.Fatalf("max clusters per vertex %d exceeds Claim 6 bound %d", got, bound)
	}
}

func TestLabelSizeIsOkLogn(t *testing.T) {
	n, k := 400, 4
	g := testGraph(t, graph.FamilyErdosRenyi, n, 41)
	s, err := Build(g, Options{K: k, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	// Each entry: 2 + treeLabel(<= 1+2 log n); k entries.
	bound := k * (3 + 2*int(math.Ceil(math.Log2(float64(n)))))
	if got := s.MaxLabelWords(); got > bound {
		t.Fatalf("label words %d exceed O(k log n) bound %d", got, bound)
	}
}

func TestTableSizeShrinksWithK(t *testing.T) {
	n := 300
	g := testGraph(t, graph.FamilyErdosRenyi, n, 51)
	words := make(map[int]int)
	for _, k := range []int{1, 3} {
		s, err := Build(g, Options{K: k, Seed: 52})
		if err != nil {
			t.Fatal(err)
		}
		words[k] = s.MaxTableWords()
	}
	// k=1 stores every vertex's tree at every vertex (Θ(n)); k=3 must be
	// drastically smaller.
	if words[3]*4 > words[1] {
		t.Fatalf("tables did not shrink with k: k1=%d k3=%d", words[1], words[3])
	}
}

func TestClusterDefinition(t *testing.T) {
	// Verify C(w) = {v : d(w,v) < d(v, A_{i+1})} directly on a small graph.
	n, k := 80, 2
	g := testGraph(t, graph.FamilyErdosRenyi, n, 61)
	s, err := Build(g, Options{K: k, Seed: 62})
	if err != nil {
		t.Fatal(err)
	}
	// Reconstruct d(v, A_1).
	d1 := g.BoundedBellmanFordMulti(s.Levels[1], nil, n).Dist
	inA1 := make(map[int]bool)
	for _, v := range s.Levels[1] {
		inA1[v] = true
	}
	ap := g.AllPairs()
	for w, tree := range s.ClusterTrees {
		bound := d1
		if inA1[w] {
			// Top-level center: unbounded cluster.
			for _, v := range tree.Members() {
				_ = v
			}
			continue
		}
		for v := 0; v < n; v++ {
			want := ap[w][v] < bound[v]
			if got := tree.Member(v); got != want {
				t.Fatalf("cluster C(%d): membership of %d = %v, want %v (d=%v bound=%v)",
					w, v, got, want, ap[w][v], bound[v])
			}
		}
	}
}

func TestSortedCenters(t *testing.T) {
	g := testGraph(t, graph.FamilyErdosRenyi, 50, 71)
	s, err := Build(g, Options{K: 2, Seed: 72})
	if err != nil {
		t.Fatal(err)
	}
	cs := s.SortedCenters()
	if len(cs) != len(s.ClusterTrees) {
		t.Fatalf("centers %d vs clusters %d", len(cs), len(s.ClusterTrees))
	}
	for i := 1; i < len(cs); i++ {
		if cs[i-1] >= cs[i] {
			t.Fatal("centers not sorted")
		}
	}
}

// Property: routing always arrives with stretch <= 4k-3 on random graphs.
func TestStretchProperty(t *testing.T) {
	f := func(seed int64, sz uint8, kRaw uint8) bool {
		n := int(sz%80) + 20
		k := int(kRaw%3) + 1
		r := rand.New(rand.NewSource(seed))
		g, err := graph.Generate(graph.FamilyErdosRenyi, n, r)
		if err != nil {
			return false
		}
		s, err := Build(g, Options{K: k, Seed: seed})
		if err != nil {
			return false
		}
		tab := dataplane.Compile(s.Scheme)
		bound := float64(4*k - 3)
		for trial := 0; trial < 20; trial++ {
			u, v := r.Intn(n), r.Intn(n)
			if u == v {
				continue
			}
			_, w, err := tab.Route(u, v)
			if err != nil {
				return false
			}
			if w/g.Dijkstra(u).Dist[v] > bound+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
