package dataplane_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"lowmemroute/internal/baseline"
	"lowmemroute/internal/clusterroute"
	"lowmemroute/internal/congest"
	"lowmemroute/internal/core"
	"lowmemroute/internal/dataplane"
	"lowmemroute/internal/graph"
	"lowmemroute/internal/tz"
)

// goldenCase is one instance of the walk golden and oracle suites.
type goldenCase struct {
	family graph.Family
	n, k   int
}

var goldenCases = []goldenCase{
	{graph.FamilyErdosRenyi, 72, 2},
	{graph.FamilyErdosRenyi, 72, 3},
	{graph.FamilyGrid, 64, 2},
	{graph.FamilyGeometric, 64, 3},
}

// row is one clusterroute-backed Table 1 scheme row with its compiled
// table and stretch bound.
type row struct {
	name  string
	s     *clusterroute.Scheme
	tab   *dataplane.Table
	bound float64
}

// goldenRows builds the tz, lp15 and paper rows over g. The paper row
// serves the table core.Build compiled; the others are compiled here.
func goldenRows(t *testing.T, g *graph.Graph, k int, seed int64) []row {
	t.Helper()
	s, err := tz.Build(g, tz.Options{K: k, Seed: seed})
	if err != nil {
		t.Fatalf("tz: %v", err)
	}
	lp, err := baseline.BuildLP15(congest.New(g, congest.WithSeed(seed)), baseline.Options{K: k, Seed: seed})
	if err != nil {
		t.Fatalf("lp15: %v", err)
	}
	p, err := core.Build(congest.New(g, congest.WithSeed(seed)), core.Options{K: k, Seed: seed})
	if err != nil {
		t.Fatalf("paper: %v", err)
	}
	// tz and lp15 are exact 4k-3 schemes; the paper's is 4k-3+o(1), with
	// the same +0.5 slack as internal/core's stretch test.
	bound := float64(4*k - 3)
	return []row{
		{"tz", s.Scheme, dataplane.Compile(s.Scheme), bound + 1e-9},
		{"lp15", lp, dataplane.Compile(lp), bound + 1e-9},
		{"paper", p.Scheme, p.Compiled(), bound + 0.5},
	}
}

// walkHash is the SHA-256 over every ordered pair's walk: an error flag,
// then (for a delivered walk) the path length, its vertex ids and the
// float64 bits of its weight.
func walkHash(n int, tab *dataplane.Table) string {
	h := sha256.New()
	var buf []int
	var word [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(word[:], x)
		h.Write(word[:])
	}
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			var w float64
			var err error
			buf, w, err = tab.RouteAppend(src, dst, buf[:0])
			if err != nil {
				h.Write([]byte{1})
				continue
			}
			h.Write([]byte{0})
			put(uint64(len(buf)))
			for _, v := range buf {
				put(uint64(v))
			}
			put(math.Float64bits(w))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestWalkGolden pins every all-pairs walk of the tz, lp15 and paper rows
// on four instances. The hashes were recorded with the interpretive
// map-backed walker that the compiled table replaced; they must never
// move.
func TestWalkGolden(t *testing.T) {
	want := map[string]string{
		"tz/erdos-renyi/n=72/k=2":    "4cd6fe466fcc8bf05fc9df9bcedd97845de4ae273726ae3b6f3eaa1615dccf74",
		"lp15/erdos-renyi/n=72/k=2":  "50341ea0171104cb7df8d0722bd49e1761344e9afca75423e8a0fe3f66e62038",
		"paper/erdos-renyi/n=72/k=2": "50341ea0171104cb7df8d0722bd49e1761344e9afca75423e8a0fe3f66e62038",
		"tz/erdos-renyi/n=72/k=3":    "5539f582a5f7eb670420f763432ee28ca2e90afa4b63a982545613c998ffae9c",
		"lp15/erdos-renyi/n=72/k=3":  "78265ccbdaf2a9df4435e96db5d0f2a533957a72d1fa23e351d0602c88f155d0",
		"paper/erdos-renyi/n=72/k=3": "78265ccbdaf2a9df4435e96db5d0f2a533957a72d1fa23e351d0602c88f155d0",
		"tz/grid/n=64/k=2":           "aa0d908009c3f6acb353dc41ee5a487e161a4b613580288ef80c47971d2d1a31",
		"lp15/grid/n=64/k=2":         "5b3fe74728cfc74a4f56485a05cd2ed3d5c4c5aac33f3875402014810869de9a",
		"paper/grid/n=64/k=2":        "5b3fe74728cfc74a4f56485a05cd2ed3d5c4c5aac33f3875402014810869de9a",
		"tz/geometric/n=64/k=3":      "fcb130f51b73e3ad79b1021d79707463b015a80902eb19d7027d7d1c48d1470d",
		"lp15/geometric/n=64/k=3":    "fcb130f51b73e3ad79b1021d79707463b015a80902eb19d7027d7d1c48d1470d",
		"paper/geometric/n=64/k=3":   "fcb130f51b73e3ad79b1021d79707463b015a80902eb19d7027d7d1c48d1470d",
	}
	for _, tc := range goldenCases {
		g, err := graph.Generate(tc.family, tc.n, rand.New(rand.NewSource(11)))
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range goldenRows(t, g, tc.k, 11) {
			key := fmt.Sprintf("%s/%s/n=%d/k=%d", r.name, tc.family, tc.n, tc.k)
			got := walkHash(tc.n, r.tab)
			if want[key] != got {
				t.Errorf("%s: walk hash %s, want %s", key, got, want[key])
			}
		}
	}
}

// treePath is the oracle walk: the cluster chosen by the paper's rule (the
// first in-cluster entry of dst's label whose tree holds src) and the
// unique path from src to dst in that tree, through their lowest common
// ancestor. It reads only the scheme's labels and cluster trees.
func treePath(s *clusterroute.Scheme, src, dst int) (root int, path []int, ok bool) {
	for _, e := range s.Labels[dst].Entries {
		tree := s.ClusterTrees[e.Root]
		if !e.InCluster || tree == nil || !tree.Member(src) {
			continue
		}
		up, down := tree.PathToRoot(src), tree.PathToRoot(dst)
		onDown := make(map[int]int, len(down))
		for i, v := range down {
			onDown[v] = i
		}
		for i, v := range up {
			if j, hit := onDown[v]; hit {
				path = append(path, up[:i+1]...)
				for j--; j >= 0; j-- {
					path = append(path, down[j])
				}
				return e.Root, path, true
			}
		}
	}
	return graph.NoVertex, nil, false
}

// TestCompiledEquivalence checks every ordered pair of every tz, lp15 and
// paper instance against the tree-path oracle, using neither forwarding
// walk to compute the expectation: the compiled walk must equal the unique
// tree path in the chosen cluster, Lookup must name that cluster, the
// weight must be bit-equal to the graph's edge weights summed in path
// order, and stretch against exact distances must stay within the row's
// bound.
func TestCompiledEquivalence(t *testing.T) {
	for _, tc := range goldenCases {
		g, err := graph.Generate(tc.family, tc.n, rand.New(rand.NewSource(11)))
		if err != nil {
			t.Fatal(err)
		}
		exact := g.AllPairs()
		for _, r := range goldenRows(t, g, tc.k, 11) {
			if r.tab.N() != tc.n {
				t.Fatalf("%s n=%d k=%d: compiled N=%d", r.name, tc.n, tc.k, r.tab.N())
			}
			var buf []int
			for src := 0; src < tc.n; src++ {
				for dst := 0; dst < tc.n; dst++ {
					id := fmt.Sprintf("%s %s n=%d k=%d %d->%d", r.name, tc.family, tc.n, tc.k, src, dst)
					var w float64
					buf, w, err = r.tab.RouteAppend(src, dst, buf[:0])
					if src == dst {
						if err != nil || len(buf) != 1 || buf[0] != src || w != 0 {
							t.Fatalf("%s: self walk %v (%v, err %v)", id, buf, w, err)
						}
						continue
					}
					root, want, ok := treePath(r.s, src, dst)
					if !ok {
						if err == nil {
							t.Fatalf("%s: walked %v with no common cluster", id, buf)
						}
						continue
					}
					if err != nil {
						t.Fatalf("%s: %v", id, err)
					}
					if hop := r.tab.Lookup(src, dataplane.Label(dst)); int(hop.Root) != root {
						t.Fatalf("%s: Lookup chose tree %d, oracle %d", id, hop.Root, root)
					}
					if !slices.Equal(buf, want) {
						t.Fatalf("%s: walk %v, tree path %v", id, buf, want)
					}
					var sum float64
					for i := 1; i < len(want); i++ {
						ew, edge := g.EdgeWeight(want[i-1], want[i])
						if !edge {
							t.Fatalf("%s: hop {%d,%d} is not an edge", id, want[i-1], want[i])
						}
						sum += ew
					}
					if math.Float64bits(w) != math.Float64bits(sum) {
						t.Fatalf("%s: weight %v, tree-path sum %v", id, w, sum)
					}
					if st := w / exact[src][dst]; st > r.bound {
						t.Fatalf("%s: stretch %v exceeds %v", id, st, r.bound)
					}
				}
			}
		}
	}
}
