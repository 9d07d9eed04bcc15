package graph

// BFSResult holds hop counts and a BFS tree from a source in the underlying
// unweighted graph.
type BFSResult struct {
	Source int
	Hops   []int // -1 for unreachable
	Parent []int // NoVertex for source/unreachable
}

// BFS explores the underlying unweighted graph from src.
func (g *Graph) BFS(src int) *BFSResult {
	n := g.N()
	res := &BFSResult{Source: src, Hops: make([]int, n), Parent: make([]int, n)}
	for i := range res.Hops {
		res.Hops[i] = -1
		res.Parent[i] = NoVertex
	}
	res.Hops[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, nb := range g.adj[u] {
			if res.Hops[nb.To] == -1 {
				res.Hops[nb.To] = res.Hops[u] + 1
				res.Parent[nb.To] = u
				queue = append(queue, nb.To)
			}
		}
	}
	return res
}

// Eccentricity returns the maximum finite hop distance in the BFS result and
// whether every vertex was reached.
func (r *BFSResult) Eccentricity() (int, bool) {
	ecc, all := 0, true
	for _, h := range r.Hops {
		if h == -1 {
			all = false
			continue
		}
		if h > ecc {
			ecc = h
		}
	}
	return ecc, all
}

// Connected reports whether the graph is connected (true for empty and
// single-vertex graphs).
func (g *Graph) Connected() bool {
	if g.N() <= 1 {
		return true
	}
	_, all := g.BFS(0).Eccentricity()
	return all
}

// HopDiameter computes D, the diameter of the underlying unweighted graph,
// by running BFS from every vertex. Returns ErrDisconnected for disconnected
// graphs.
func (g *Graph) HopDiameter() (int, error) {
	if g.N() == 0 {
		return 0, nil
	}
	d := 0
	for s := 0; s < g.N(); s++ {
		ecc, all := g.BFS(s).Eccentricity()
		if !all {
			return 0, ErrDisconnected
		}
		if ecc > d {
			d = ecc
		}
	}
	return d, nil
}

// ShortestPathDiameter computes S, the maximum over all pairs (u,v) of the
// minimum hop count among shortest (by weight) u-v paths. This is the
// quantity the running time of [LP15]'s scheme depends on. Quadratic work;
// intended for evaluation.
func (g *Graph) ShortestPathDiameter() (int, error) {
	n := g.N()
	s := 0
	for src := 0; src < n; src++ {
		hops := g.minHopShortestPaths(src)
		for v, h := range hops {
			if h == -1 {
				if v != src {
					return 0, ErrDisconnected
				}
				continue
			}
			if h > s {
				s = h
			}
		}
	}
	return s, nil
}

// minHopShortestPaths returns, for each v, the minimum number of hops over
// all minimum-weight src-v paths (lexicographic Dijkstra on (dist, hops)).
func (g *Graph) minHopShortestPaths(src int) []int {
	n := g.N()
	dist := make([]float64, n)
	hops := make([]int, n)
	for i := range dist {
		dist[i] = Infinity
		hops[i] = -1
	}
	dist[src] = 0
	hops[src] = 0
	// Priority = dist + tiny·hops would be fragile; run Dijkstra on dist and
	// settle hop ties by explicit comparison during relaxation.
	h := newVertexHeap(n)
	h.Push(src, 0)
	done := make([]bool, n)
	for h.Len() > 0 {
		u, _ := h.Pop()
		if done[u] {
			continue
		}
		done[u] = true
		for _, nb := range g.adj[u] {
			alt := dist[u] + nb.Weight
			altHops := hops[u] + 1
			if alt < dist[nb.To] || (alt == dist[nb.To] && altHops < hops[nb.To]) {
				if alt < dist[nb.To] {
					h.PushOrDecrease(nb.To, alt)
				}
				dist[nb.To] = alt
				hops[nb.To] = altHops
			}
		}
	}
	// One more relaxation sweep pass to settle equal-distance hop
	// improvements missed by settled order (weights are positive so a few
	// Bellman-Ford style sweeps converge; hop counts only decrease).
	for changed := true; changed; {
		changed = false
		for u := 0; u < n; u++ {
			if dist[u] == Infinity {
				continue
			}
			for _, nb := range g.adj[u] {
				if dist[u]+nb.Weight == dist[nb.To] && hops[u]+1 < hops[nb.To] {
					hops[nb.To] = hops[u] + 1
					changed = true
				}
			}
		}
	}
	return hops
}
