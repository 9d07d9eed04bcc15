//lint:simulator
package csrtopo

// Fixture for the simulator's topology accessor surface (*graph.CSR):
// handlers that walk NeighborRange and ArcWeight. Two contracts are pinned
// here. For LM002, reading the shared CSR arrays is free (they are
// host-side graph storage, not vertex state), but copying adjacency into
// retained per-vertex state is an allocation like any other and must be
// charged. For LM006, an engine-owned payload Ext slice stays tracked
// through a NeighborRange loop — forwarding logic that fans a received
// payload out to CSR neighbors must still copy-before-retain.

import (
	"lowmemroute/internal/congest"
	"lowmemroute/internal/graph"
)

type st struct {
	nbrs  []int32
	saved []uint64
	byArc map[int]float64
}

// walk only reads the topology: the NeighborRange slice and ArcWeight values
// are shared CSR storage, so nothing here allocates and LM002 stays silent.
func walk(v int, ctx *congest.Ctx, topo *graph.CSR, s *st) float64 {
	to, base := topo.NeighborRange(v)
	var sum float64
	for i, u := range to {
		_ = u
		sum += topo.ArcWeight(base + i)
	}
	return sum
}

// retain copies adjacency into per-vertex state and charges the copy: the
// CSR arrays are free to read, the retained copy is vertex memory.
func retain(v int, ctx *congest.Ctx, topo *graph.CSR, s *st) {
	to, _ := topo.NeighborRange(v)
	s.nbrs = append(s.nbrs, to...)
	ctx.Mem().Charge(int64(len(to)))
}

// retainUnmetered makes the same copies with no charge in the function:
// every retained shape is flagged exactly as for any other state.
func retainUnmetered(v int, ctx *congest.Ctx, topo *graph.CSR, s *st) {
	to, base := topo.NeighborRange(v)
	s.nbrs = append(s.nbrs, to...)       // want `append allocates`
	s.byArc[base] = topo.ArcWeight(base) // want `map insert retains state`
	deg := make([]int, topo.Degree(v))   // want `make allocates`
	_ = deg
}

// fanOut relays a received payload to every CSR neighbor. The Ext slice is
// engine-owned: storing it across the loop is an escape, writing through it
// corrupts the arena, but re-sending it and copy-before-retain are fine —
// the usual Ext rules, unchanged by the accessor surface.
func fanOut(v int, ctx *congest.Ctx, topo *graph.CSR, s *st) {
	in := ctx.In()
	to, _ := topo.NeighborRange(v)
	ctx.Mem().Charge(1) // the copy-before-retain below is vertex memory
	for i := range in {
		p := &in[i].Payload
		ext := p.Ext
		for _, u := range to {
			s.saved = ext // want `escapes the handler \(stored into a struct field\)`
			ext[0] = 1    // want `is written through`
			ctx.Send(int(u), *p, 1+len(ext))
		}
		s.saved = append(s.saved[:0], ext...)
	}
}
