package lowmemroute

import (
	"fmt"

	"lowmemroute/internal/dataplane"
)

// Label addresses a destination in the compiled data plane: its vertex id
// (the compiled table holds every vertex's routing label).
type Label = dataplane.Label

// NextHop is one compiled forwarding decision; see dataplane.NextHop.
type NextHop = dataplane.NextHop

// DataPlane is the forwarding half of a built scheme: the control plane's
// pointer-rich tables compiled into immutable flat arrays, served lock-free
// to any number of concurrent readers with no per-lookup allocation.
// Rebuild swaps in a freshly compiled table atomically (copy-on-write), so
// lookups racing a rebuild always see a complete table.
type DataPlane struct {
	scheme *Scheme
	eng    *dataplane.Engine
}

// Compile returns the scheme's data plane, serving the flat table Build
// compiled from its routing tables and labels; it does not compile again.
// The table is a snapshot: it serves lookups independently of the scheme
// afterwards (call Rebuild to re-snapshot).
func Compile(s *Scheme) (*DataPlane, error) {
	if s == nil || s.inner == nil {
		return nil, fmt.Errorf("lowmemroute: Compile of a nil scheme")
	}
	return &DataPlane{
		scheme: s,
		eng:    dataplane.NewEngine(s.inner.Compiled()),
	}, nil
}

// Lookup makes one forwarding decision at src toward dst. A src or dst
// outside [0, Nodes()) gets the no-route decision (Next, Root and Entry
// all -1). Allocation-free; safe for unlimited concurrent use.
func (d *DataPlane) Lookup(src int, dst Label) NextHop {
	return d.eng.Table().Lookup(src, dst)
}

// LookupBatch makes one forwarding decision per destination, all at src,
// filling out index-aligned with dst; it returns the number of decisions
// made (min of the two lengths). The whole batch reads one consistent table
// snapshot even if Rebuild runs concurrently.
func (d *DataPlane) LookupBatch(src int, dst []Label, out []NextHop) int {
	return d.eng.Table().LookupBatch(src, dst, out)
}

// Route walks src → dst through the compiled table. It is the walk
// Scheme.Route makes, served from this data plane's current snapshot; an
// endpoint outside [0, Nodes()) is an error.
func (d *DataPlane) Route(src, dst int) (Path, error) {
	nodes, w, err := d.eng.Table().Route(src, dst)
	if err != nil {
		return Path{}, err
	}
	return Path{Nodes: nodes, Weight: w}, nil
}

// RouteAppend is Route with a caller-provided node buffer (reused across
// queries; allocation only on growth). The walked path is appended to nodes.
func (d *DataPlane) RouteAppend(src, dst int, nodes []int) ([]int, float64, error) {
	return d.eng.Table().RouteAppend(src, dst, nodes)
}

// Rebuild recompiles the data plane from the scheme and atomically swaps it
// in. In-flight lookups finish against the table they started on; new
// lookups see the new table. Safe to call concurrently with lookups.
func (d *DataPlane) Rebuild() {
	d.eng.Swap(dataplane.Compile(d.scheme.inner.Scheme))
}
