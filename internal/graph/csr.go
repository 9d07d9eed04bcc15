package graph

import (
	"fmt"
	"math"
	"sort"
)

// CSR is an immutable compressed-sparse-row adjacency: one flat int32
// offset array, one flat int32 neighbor array, and quantized edge weights.
// It is built once (FromGraph or CSRBuilder.Build) and then shared
// read-only across the simulator, the construction phases, and the data
// plane — no per-vertex slice headers, no Neighbor structs, no pointers
// for the GC to trace.
//
// Weights are stored as uint16 indices into a sorted table of the distinct
// weight values whenever the graph has at most 65536 distinct weights
// (every generator family in this repo is far below that); otherwise a
// plain []float64 fallback is kept. Either way ArcWeight returns the exact
// float64 the edge was added with.
//
// Footprint: 4(n+1) + 4·2m bytes of structure plus 2·2m bytes of weight
// classes — about 12 bytes per undirected edge, versus ~24 bytes plus a
// slice header and allocator slack per edge for [][]Neighbor.
type CSR struct {
	off     []int32   // len n+1; arcs of u are [off[u], off[u+1])
	to      []int32   // len 2m; neighbor of each arc, adjacency order
	wcls    []uint16  // len 2m when the class table is in use
	classes []float64 // sorted distinct weights, indexed by wcls
	w64     []float64 // len 2m fallback when >65536 distinct weights
	m       int
}

// N returns the number of vertices.
func (c *CSR) N() int { return len(c.off) - 1 }

// M returns the number of undirected edges.
func (c *CSR) M() int { return c.m }

// Degree returns the number of arcs leaving u.
func (c *CSR) Degree(u int) int { return int(c.off[u+1] - c.off[u]) }

// NeighborRange returns u's neighbors in adjacency order and the global id
// of u's first arc. The slice aliases the CSR's backing array: read-only.
func (c *CSR) NeighborRange(u int) ([]int32, int) {
	lo := c.off[u]
	return c.to[lo:c.off[u+1]], int(lo)
}

// ArcWeight returns the weight of directed arc a.
func (c *CSR) ArcWeight(a int) float64 {
	if c.w64 != nil {
		return c.w64[a]
	}
	return c.classes[c.wcls[a]]
}

// EdgeWeight returns the weight of the lightest edge {u,v} and whether one
// exists.
func (c *CSR) EdgeWeight(u, v int) (float64, bool) {
	if u < 0 || u >= c.N() {
		return 0, false
	}
	to, base := c.NeighborRange(u)
	best, ok := 0.0, false
	for i, x := range to {
		if int(x) == v {
			if w := c.ArcWeight(base + i); !ok || w < best {
				best, ok = w, true
			}
		}
	}
	return best, ok
}

// HasEdge reports whether an edge {u,v} exists.
func (c *CSR) HasEdge(u, v int) bool {
	if u < 0 || u >= c.N() {
		return false
	}
	to, _ := c.NeighborRange(u)
	for _, x := range to {
		if int(x) == v {
			return true
		}
	}
	return false
}

// HopRadiusUpperBound returns 2·ecc(0), a cheap upper bound on the hop
// diameter usable by algorithms that only need "some" D. Returns
// ErrDisconnected for disconnected topologies.
func (c *CSR) HopRadiusUpperBound() (int, error) {
	n := c.N()
	if n == 0 {
		return 0, nil
	}
	hops := make([]int32, n)
	for i := range hops {
		hops[i] = -1
	}
	hops[0] = 0
	queue := make([]int32, 1, n)
	ecc := int32(0)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		to, _ := c.NeighborRange(int(u))
		for _, v := range to {
			if hops[v] == -1 {
				hops[v] = hops[u] + 1
				ecc = max(ecc, hops[v])
				queue = append(queue, v)
			}
		}
	}
	if len(queue) != n {
		return 0, ErrDisconnected
	}
	return 2 * int(ecc), nil
}

// WeightClasses returns the number of distinct edge weights, or 0 when the
// class table was abandoned for the float64 fallback.
func (c *CSR) WeightClasses() int { return len(c.classes) }

// MemoryBytes returns the resident size of the CSR's flat arrays — the
// number the scale harness reports as the topology's share of the heap.
func (c *CSR) MemoryBytes() int64 {
	b := int64(len(c.off))*4 + int64(len(c.to))*4
	b += int64(len(c.wcls))*2 + int64(len(c.classes))*8 + int64(len(c.w64))*8
	return b
}

// ToGraph expands the CSR back into a mutable *Graph with identical
// adjacency order and weights, for the small-n reference paths (Dijkstra,
// baselines, tests) that need the mutable form.
func (c *CSR) ToGraph() *Graph {
	n := c.N()
	g := New(n)
	for u := 0; u < n; u++ {
		lo, hi := c.off[u], c.off[u+1]
		adj := make([]Neighbor, hi-lo)
		for i := lo; i < hi; i++ {
			adj[i-lo] = Neighbor{To: int(c.to[i]), Weight: c.ArcWeight(int(i))}
		}
		g.adj[u] = adj
	}
	g.edges = c.m
	return g
}

// FromGraph compacts g into a CSR preserving per-vertex adjacency order
// exactly, so every handler that iterates NeighborRange sees the same
// neighbor sequence Graph.Neighbors produced and message traces stay
// byte-identical.
func FromGraph(g *Graph) *CSR {
	n := g.N()
	c := &CSR{off: make([]int32, n+1), m: g.M()}
	arcs := 0
	for u := 0; u < n; u++ {
		arcs += len(g.adj[u])
		c.off[u+1] = int32(arcs)
	}
	c.to = make([]int32, arcs)
	w := make([]float64, arcs)
	i := 0
	for u := 0; u < n; u++ {
		for _, nb := range g.adj[u] {
			c.to[i] = int32(nb.To)
			w[i] = nb.Weight
			i++
		}
	}
	c.quantize(w)
	return c
}

// quantize builds the uint16 class table from the per-arc weights, falling
// back to retaining w itself when there are too many distinct values.
func (c *CSR) quantize(w []float64) {
	distinct := make(map[float64]struct{}, 64)
	for _, x := range w {
		distinct[x] = struct{}{}
		if len(distinct) > 1<<16 {
			c.w64 = w
			return
		}
	}
	c.classes = make([]float64, 0, len(distinct))
	for x := range distinct {
		c.classes = append(c.classes, x)
	}
	sort.Float64s(c.classes)
	idx := make(map[float64]uint16, len(c.classes))
	for i, x := range c.classes {
		idx[x] = uint16(i)
	}
	c.wcls = make([]uint16, len(w))
	for i, x := range w {
		c.wcls[i] = idx[x]
	}
}

// CSRBuilder accumulates a fixed-order edge stream and compacts it into a
// CSR with a stable counting sort. Streaming generators emit into it
// directly: transient state is three flat arrays of 16 bytes per edge, and
// the per-vertex neighbor order of the built CSR equals the order AddEdge
// touched each endpoint — exactly the order Graph.AddEdge would have
// appended, so builder output is bit-identical to FromGraph of the
// slice-built graph for the same edge stream.
type CSRBuilder struct {
	n  int
	eu []int32
	ev []int32
	ew []float64
}

// NewCSRBuilder returns a builder for an n-vertex topology.
func NewCSRBuilder(n int) *CSRBuilder {
	if n < 0 {
		panic(fmt.Sprintf("graph: NewCSRBuilder(%d): negative size", n))
	}
	return &CSRBuilder{n: n}
}

// N returns the number of vertices.
func (b *CSRBuilder) N() int { return b.n }

// M returns the number of edges added so far.
func (b *CSRBuilder) M() int { return len(b.eu) }

// AddEdge appends the undirected edge {u,v} with weight w to the stream.
// Like Graph.MustAddEdge it panics on self-loops, out-of-range endpoints,
// or non-positive weights — generators emit only valid edges.
func (b *CSRBuilder) AddEdge(u, v int, w float64) {
	if u < 0 || u >= b.n || v < 0 || v >= b.n || u == v || !(w > 0) || math.IsInf(w, 0) {
		panic(fmt.Sprintf("graph: CSRBuilder.AddEdge(%d, %d, %g) invalid for n=%d", u, v, w, b.n))
	}
	b.eu = append(b.eu, int32(u))
	b.ev = append(b.ev, int32(v))
	b.ew = append(b.ew, w)
}

// Build compacts the accumulated edge stream into a CSR and releases the
// builder's transient arrays. The counting sort is stable in edge order,
// so vertex u's arcs appear in the order edges incident to u were added —
// matching Graph.AddEdge adjacency order (u's entry first, then v's, per
// call).
func (b *CSRBuilder) Build() *CSR {
	n, m := b.n, len(b.eu)
	c := &CSR{off: make([]int32, n+1), m: m}
	deg := make([]int32, n)
	for i := 0; i < m; i++ {
		deg[b.eu[i]]++
		deg[b.ev[i]]++
	}
	arcs := int32(0)
	for u := 0; u < n; u++ {
		c.off[u] = arcs
		arcs += deg[u]
	}
	c.off[n] = arcs
	c.to = make([]int32, arcs)
	w := make([]float64, arcs)
	cursor := make([]int32, n)
	copy(cursor, c.off[:n])
	for i := 0; i < m; i++ {
		u, v, wt := b.eu[i], b.ev[i], b.ew[i]
		c.to[cursor[u]] = v
		w[cursor[u]] = wt
		cursor[u]++
		c.to[cursor[v]] = u
		w[cursor[v]] = wt
		cursor[v]++
	}
	b.eu, b.ev, b.ew = nil, nil, nil
	c.quantize(w)
	return c
}
