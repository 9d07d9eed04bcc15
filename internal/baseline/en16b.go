package baseline

import (
	"fmt"
	"math"

	"lowmemroute/internal/congest"
	"lowmemroute/internal/graph"
	"lowmemroute/internal/hopset"
	"lowmemroute/internal/treeroute"
	"lowmemroute/internal/tz"
)

// EN16bScheme is the EN16b/LPP16-style routing scheme: Thorup-Zwick cluster
// structure with the pre-paper tree routing on every cluster tree.
type EN16bScheme struct {
	K int
	// Trees maps each cluster center to its tree; TreeSchemes holds the
	// EN16b-style tree-routing scheme of each tree.
	Trees       map[int]*graph.Tree
	TreeSchemes map[int]*treeroute.BaselineScheme
	// PivotRoots[j][v] is v's level-j pivot.
	PivotRoots [][]int

	n int
	// weights[c] is tree c's member-indexed up-edge weights (UpWeights).
	weights map[int][]float64
}

// BuildEN16b constructs the EN16b-style scheme. The cluster structure is
// computed via the centralized TZ reference (its approximate clusters have
// the same shape); what makes this row of Table 1 is how the costs land:
//
//   - every virtual vertex (member of A_{⌈k/2⌉}) is charged the full
//     adjacency of the materialised virtual graph G' - Ω(√n) words;
//   - every cluster tree gets the EN16b-style tree routing
//     (treeroute.BuildBaseline): labels gain a log n factor and tree
//     portals store entire virtual trees;
//   - the virtual-graph rounds are charged analytically as
//     (n^{1/2+1/k} + D)·log²(n)·log(Λ), the Table 1 formula with the
//     polylog factor instantiated at log²(n).
func BuildEN16b(sim *congest.Simulator, opts Options) (*EN16bScheme, error) {
	n := sim.N()
	k := opts.K
	if k < 1 {
		return nil, fmt.Errorf("baseline: k=%d < 1", k)
	}
	topo := sim.Topo()
	g := topo.ToGraph()
	ref, err := tz.Build(g, tz.Options{K: k, Seed: opts.Seed})
	if err != nil {
		return nil, fmt.Errorf("baseline: EN16b structure: %w", err)
	}

	s := &EN16bScheme{
		K:           k,
		Trees:       make(map[int]*graph.Tree),
		TreeSchemes: make(map[int]*treeroute.BaselineScheme),
		n:           n,
		weights:     make(map[int][]float64),
	}
	if n == 0 {
		return s, nil
	}

	// Materialise the virtual graph G' on V' = A_{⌈k/2⌉} and charge every
	// virtual vertex its full G' adjacency.
	kHalf := (k + 1) / 2
	if kHalf < len(ref.Levels) {
		members := ref.Levels[kHalf]
		b := int(math.Ceil(math.Sqrt(float64(n)) * math.Log(float64(n)+1)))
		if b > n {
			b = n
		}
		vg, err := hopset.NewVirtualGraph(g, members, b)
		if err != nil {
			return nil, fmt.Errorf("baseline: EN16b virtual graph: %w", err)
		}
		gp, toVirt := vg.Materialize()
		for _, u := range members {
			sim.Mem(u).Charge(2 * int64(gp.Degree(toVirt[u])))
		}
		// Analytic round charge for computing G' and running the
		// Bellman-Ford phases over it (Table 1's EN16b row, polylog
		// instantiated at log², times the log Λ weight-discovery factor).
		logn := math.Log2(float64(n) + 1)
		logLambda := math.Log2(g.AspectRatio() + 2)
		rounds := (math.Pow(float64(n), 0.5+1/float64(k)) + float64(sim.Diameter())) * logn * logn * logLambda
		sim.AddRounds(int64(math.Ceil(rounds)))
	}

	// Per-cluster EN16b-style tree routing (real construction: charges the
	// portal memory and broadcast rounds itself).
	for c, tree := range ref.ClusterTrees {
		ts, err := treeroute.BuildBaseline(sim, tree, treeroute.DistOptions{Seed: opts.Seed + int64(c)})
		if err != nil {
			return nil, fmt.Errorf("baseline: EN16b tree routing for %d: %w", c, err)
		}
		s.Trees[c] = tree
		s.TreeSchemes[c] = ts
		s.weights[c] = tree.UpWeights(topo)
	}

	// Pivot roots per level, straight from the reference labels.
	s.PivotRoots = make([][]int, k)
	for j := 0; j < k; j++ {
		s.PivotRoots[j] = make([]int, n)
		for v := 0; v < n; v++ {
			s.PivotRoots[j][v] = graph.NoVertex
		}
	}
	for v := 0; v < n; v++ {
		for _, e := range ref.Labels[v].Entries {
			s.PivotRoots[e.Level][v] = e.Root
		}
	}
	// Final aggregated label storage (one EN16b tree label per level).
	for v := 0; v < n; v++ {
		w := 1
		for j := 0; j < k; j++ {
			root := s.PivotRoots[j][v]
			if root == graph.NoVertex {
				continue
			}
			w += 2
			if ts, ok := s.TreeSchemes[root]; ok {
				if lab, in := ts.Labels[v]; in {
					w += lab.Words()
				}
			}
		}
		sim.Mem(v).Charge(int64(w))
	}
	return s, nil
}

// Route walks a message from src to dst through the lowest mutual cluster,
// using the EN16b-style tree routing inside it. Returns the vertex path and
// its weighted length.
func (s *EN16bScheme) Route(src, dst int) ([]int, float64, error) {
	if src == dst {
		return []int{src}, 0, nil
	}
	for j := 0; j < s.K; j++ {
		root := s.PivotRoots[j][dst]
		if root == graph.NoVertex {
			continue
		}
		tree, ok := s.Trees[root]
		if !ok || !tree.Member(src) || !tree.Member(dst) {
			continue
		}
		path, err := s.TreeSchemes[root].Route(src, dst)
		if err != nil {
			return nil, 0, err
		}
		weights := s.weights[root]
		var total float64
		for i := 1; i < len(path); i++ {
			child := path[i]
			if tree.Parent(path[i-1]) == path[i] {
				child = path[i-1]
			}
			total += weights[tree.MemberIndex(child)]
		}
		return path, total, nil
	}
	return nil, 0, fmt.Errorf("baseline: EN16b: no common cluster for %d -> %d", src, dst)
}

// MaxTableWords returns the largest per-vertex table size in words: the sum
// over clusters containing the vertex of the EN16b tree table plus the
// center id.
func (s *EN16bScheme) MaxTableWords() int {
	words := make([]int, s.n)
	for c, ts := range s.TreeSchemes {
		for _, v := range s.Trees[c].Members() {
			words[v] += 1 + ts.Tables[v].Words()
		}
	}
	mx := 0
	for _, w := range words {
		if w > mx {
			mx = w
		}
	}
	return mx
}

// MaxLabelWords returns the largest per-vertex label size in words: one
// EN16b tree label per pivot level (the O(k log² n) signature).
func (s *EN16bScheme) MaxLabelWords() int {
	mx := 0
	for v := 0; v < s.n; v++ {
		w := 1
		for j := 0; j < s.K; j++ {
			root := s.PivotRoots[j][v]
			if root == graph.NoVertex {
				continue
			}
			w += 2
			if ts, ok := s.TreeSchemes[root]; ok {
				if lab, in := ts.Labels[v]; in {
					w += lab.Words()
				}
			}
		}
		if w > mx {
			mx = w
		}
	}
	return mx
}
