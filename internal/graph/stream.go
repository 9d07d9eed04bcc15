package graph

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// This file holds the streaming generator cores: each family emits its
// edges in a fixed, documented order through an emit callback, so the same
// core drives both the slice-based *Graph constructors (emit =
// MustAddEdge) and the compact *CSR builders (emit = CSRBuilder.AddEdge)
// with bit-identical output — same edge order, same weights, same RNG
// consumption. The CSR paths never materialise [][]Neighbor or any other
// per-vertex slice state: transient memory is the builder's flat edge
// arrays plus O(n) generator scratch.

// streamGrid emits the rows×cols grid row-major: for each cell, the right
// edge then the down edge. Matches the historical Grid order exactly.
func streamGrid(rows, cols int, w WeightFunc, r *rand.Rand, emit func(u, v int, wt float64)) {
	id := func(i, j int) int { return i*cols + j }
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if j+1 < cols {
				emit(id(i, j), id(i, j+1), w(r))
			}
			if i+1 < rows {
				emit(id(i, j), id(i+1, j), w(r))
			}
		}
	}
}

// streamTorus emits the grid edges and then the wraparound edges in one
// stream — the wrap edges are generated in-line rather than retrofitted
// onto a built Grid, so the CSR path needs no post-hoc edge insertion. The
// order (grid pass, then row wraps, then column wraps) and the RNG draw
// sequence match the historical Grid-then-retrofit Torus exactly.
func streamTorus(rows, cols int, w WeightFunc, r *rand.Rand, emit func(u, v int, wt float64)) {
	streamGrid(rows, cols, w, r, emit)
	id := func(i, j int) int { return i*cols + j }
	if cols > 2 {
		for i := 0; i < rows; i++ {
			emit(id(i, 0), id(i, cols-1), w(r))
		}
	}
	if rows > 2 {
		for j := 0; j < cols; j++ {
			emit(id(0, j), id(rows-1, j), w(r))
		}
	}
}

// streamHypercube emits the d-dimensional hypercube in ascending (u, bit)
// order, matching the historical Hypercube order.
func streamHypercube(d int, w WeightFunc, r *rand.Rand, emit func(u, v int, wt float64)) {
	n := 1 << d
	for u := 0; u < n; u++ {
		for b := 0; b < d; b++ {
			v := u ^ (1 << b)
			if u < v {
				emit(u, v, w(r))
			}
		}
	}
}

// streamBarabasiAlbert emits a preferential-attachment graph: each new
// vertex attaches to m existing vertices chosen proportionally to degree
// via a repeated-endpoint list. The m distinct targets of each new vertex
// are emitted in ascending order (the historical implementation iterated a
// Go map here, which made the edge order — and therefore the weights and
// all downstream traces — nondeterministic across runs; sorted order fixes
// the stream). RNG consumption is unchanged: targets are drawn until m
// distinct, then one weight per emitted edge.
func streamBarabasiAlbert(n, m int, w WeightFunc, r *rand.Rand, emit func(u, v int, wt float64)) {
	if m < 1 {
		m = 1
	}
	if n == 0 {
		return
	}
	endpoints := make([]int32, 0, 2*m*n)
	start := m + 1
	if start > n {
		start = n
	}
	for u := 1; u < start; u++ {
		emit(u, u-1, w(r))
		endpoints = append(endpoints, int32(u), int32(u-1))
	}
	chosen := make(map[int]bool, m)
	targets := make([]int, 0, m)
	for u := start; u < n; u++ {
		clear(chosen)
		for len(chosen) < m {
			v := int(endpoints[r.Intn(len(endpoints))])
			if v != u {
				chosen[v] = true
			}
		}
		targets = targets[:0]
		for v := range chosen {
			targets = append(targets, v)
		}
		sort.Ints(targets)
		for _, v := range targets {
			emit(u, v, w(r))
			endpoints = append(endpoints, int32(u), int32(v))
		}
	}
}

// streamGeometric emits the random geometric graph with O(n) scratch: n
// points uniform in the unit square (x then y per point), every pair within
// radius joined by an edge weighted max(1, 1000·length). Pair discovery
// uses a radius-sized cell grid; edges come out u ascending, v ascending
// within u. A stitch pass along the x-sorted point order (stable in vertex
// id) then joins consecutive points in different union-find components, so
// the result is always connected.
func streamGeometric(n int, radius float64, r *rand.Rand, emit func(u, v int, wt float64)) {
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i] = r.Float64()
		ys[i] = r.Float64()
	}
	weight := func(d float64) float64 { return math.Max(1, d*1000) }
	dist := func(u, v int) float64 {
		dx, dy := xs[u]-xs[v], ys[u]-ys[v]
		return math.Sqrt(dx*dx + dy*dy)
	}

	// Union-find over the edges as they are emitted, for the stitch pass.
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(x int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(int32(a)), find(int32(b))
		if ra != rb {
			parent[ra] = rb
		}
	}

	// Bucket points into cells of side = radius; any pair within radius
	// lands in the same or an adjacent cell (floor is monotone, so a
	// coordinate gap ≤ radius is a cell gap ≤ 1).
	side := 1
	if radius > 0 && radius < 1 {
		side = int(1/radius) + 1
	}
	cellOf := func(i int) (int, int) {
		if radius <= 0 {
			return 0, 0
		}
		cx := int(xs[i] / radius)
		cy := int(ys[i] / radius)
		if cx >= side {
			cx = side - 1
		}
		if cy >= side {
			cy = side - 1
		}
		return cx, cy
	}
	cellStart := make([]int32, side*side+1)
	for i := 0; i < n; i++ {
		cx, cy := cellOf(i)
		cellStart[cx*side+cy+1]++
	}
	for c := 0; c < side*side; c++ {
		cellStart[c+1] += cellStart[c]
	}
	cellPts := make([]int32, n)
	cursor := make([]int32, side*side)
	copy(cursor, cellStart[:side*side])
	for i := 0; i < n; i++ {
		cx, cy := cellOf(i)
		c := cx*side + cy
		cellPts[cursor[c]] = int32(i)
		cursor[c]++
	}

	cand := make([]int32, 0, 64)
	for u := 0; u < n; u++ {
		cx, cy := cellOf(u)
		cand = cand[:0]
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				gx, gy := cx+dx, cy+dy
				if gx < 0 || gx >= side || gy < 0 || gy >= side {
					continue
				}
				c := gx*side + gy
				for _, v := range cellPts[cellStart[c]:cellStart[c+1]] {
					if int(v) > u {
						cand = append(cand, v)
					}
				}
			}
		}
		sort.Slice(cand, func(i, j int) bool { return cand[i] < cand[j] })
		for _, v32 := range cand {
			v := int(v32)
			if d := dist(u, v); d <= radius {
				emit(u, v, weight(d))
				union(u, v)
			}
		}
	}

	// Stitch components along the x-sorted point order (stable in vertex
	// id for equal x, like the historical insertion sort).
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	sort.SliceStable(order, func(i, j int) bool { return xs[order[i]] < xs[order[j]] })
	for i := 1; i < n; i++ {
		u, v := int(order[i-1]), int(order[i])
		if find(int32(u)) != find(int32(v)) {
			emit(u, v, weight(dist(u, v)))
			union(u, v)
		}
	}
}

// GridCSR builds the rows×cols grid directly into a CSR, bit-identical to
// FromGraph(Grid(rows, cols, w, r)) with the same *rand.Rand state.
func GridCSR(rows, cols int, w WeightFunc, r *rand.Rand) *CSR {
	b := NewCSRBuilder(rows * cols)
	streamGrid(rows, cols, w, r, b.AddEdge)
	return b.Build()
}

// TorusCSR builds the torus directly into a CSR with the wrap edges
// generated in-stream, bit-identical to FromGraph(Torus(rows, cols, w, r)).
func TorusCSR(rows, cols int, w WeightFunc, r *rand.Rand) *CSR {
	b := NewCSRBuilder(rows * cols)
	streamTorus(rows, cols, w, r, b.AddEdge)
	return b.Build()
}

// HypercubeCSR builds the d-dimensional hypercube directly into a CSR,
// bit-identical to FromGraph(Hypercube(d, w, r)).
func HypercubeCSR(d int, w WeightFunc, r *rand.Rand) *CSR {
	b := NewCSRBuilder(1 << d)
	streamHypercube(d, w, r, b.AddEdge)
	return b.Build()
}

// BarabasiAlbertCSR builds the preferential-attachment graph directly into
// a CSR, bit-identical to FromGraph(BarabasiAlbert(n, m, w, r)).
func BarabasiAlbertCSR(n, m int, w WeightFunc, r *rand.Rand) *CSR {
	b := NewCSRBuilder(n)
	streamBarabasiAlbert(n, m, w, r, b.AddEdge)
	return b.Build()
}

// RandomGeometricCSR builds the random geometric graph directly into a CSR
// using O(n) cell-bucket scratch; Generate's geometric family expands it
// with ToGraph.
func RandomGeometricCSR(n int, radius float64, r *rand.Rand) *CSR {
	b := NewCSRBuilder(n)
	streamGeometric(n, radius, r, b.AddEdge)
	return b.Build()
}

// GenerateCSR builds an n-vertex connected instance of the named family
// directly into a CSR with the same density defaults as Generate, emitting
// edges in a fixed order without O(n^2) work or per-vertex slice state.
// The Erdős–Rényi family is the one exception: its definition is a coin
// flip per vertex pair, so it falls back to compacting the slice-built
// graph and is not suitable for million-vertex runs.
func GenerateCSR(f Family, n int, r *rand.Rand) (*CSR, error) {
	switch f {
	case FamilyErdosRenyi:
		g, err := Generate(f, n, r)
		if err != nil {
			return nil, err
		}
		return FromGraph(g), nil
	case FamilyGeometric:
		return RandomGeometricCSR(n, geometricDefaultRadius(n), r), nil
	case FamilyGrid:
		rows, cols := gridDefaultDims(n)
		return GridCSR(rows, cols, IntegerWeights(10), r), nil
	case FamilyTorus:
		rows, cols := gridDefaultDims(n)
		return TorusCSR(rows, cols, IntegerWeights(10), r), nil
	case FamilyPowerLaw:
		return BarabasiAlbertCSR(n, 3, IntegerWeights(100), r), nil
	case FamilyHypercube:
		return HypercubeCSR(hypercubeDefaultDim(n), IntegerWeights(10), r), nil
	default:
		return nil, fmt.Errorf("graph: unknown family %q", f)
	}
}
