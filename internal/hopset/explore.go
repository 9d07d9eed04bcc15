package hopset

import (
	"fmt"
	"sort"

	"lowmemroute/internal/congest"
	"lowmemroute/internal/graph"
)

// Source seeds an exploration: host vertex At starts with estimate Dist for
// the exploration identified by Root. Several sources may share a Root
// (set-source explorations, e.g. "distance to A_{i+1}").
type Source struct {
	Root int
	At   int
	Dist float64
}

// LimitFunc decides whether host vertex v may forward Root's exploration
// after adopting estimate d. This is how the paper's cluster-membership
// conditions (d < d(v, A_{i+1}) and the (1+ε)-relaxed variants) bound both
// congestion and per-vertex memory. nil means always forward.
type LimitFunc func(v, root int, d float64) bool

// Entry is one exploration's record at a host vertex.
type Entry struct {
	Dist   float64
	Parent int // host neighbor that delivered the estimate; NoVertex at seeds
	Origin int // the seed vertex whose exploration reached here
}

// ExploreOptions configures Explore.
type ExploreOptions struct {
	// Hops is the per-message hop budget (the B in "B-bounded").
	Hops int
	// Limit is the forwarding predicate (may be nil).
	Limit LimitFunc
	// MaxRounds caps the simulation; 0 selects a generous default. Hitting
	// the cap returns an error: it indicates a bug, not load.
	MaxRounds int
}

// RootEntry is one exploration's record at a host vertex, tagged with the
// root that owns it. Beyond the Entry it tracks the farthest remaining hop
// budget seen, so that explorations merge a Pareto frontier of (distance,
// reach). Forwarding happens whenever either coordinate improves; the merged
// estimate can therefore slightly overreach the strict B-bound (it still
// describes a genuine walk in G, so all safety properties that rely on
// estimates being at least d_G hold; see the package comment in DESIGN.md).
type RootEntry struct {
	Root int
	Entry
	ttl int
}

// ExploreResult holds, at every host vertex, each exploration root's best
// entry, sorted by root ascending. The result aliases its Explorer's
// workspace: it is valid until the next Explore call on the same Explorer.
type ExploreResult struct {
	entries [][]RootEntry
}

// At returns v's entries, sorted by Root ascending. Read-only.
func (r *ExploreResult) At(v int) []RootEntry { return r.entries[v] }

// Get returns root's entry at v.
func (r *ExploreResult) Get(v, root int) (Entry, bool) {
	es := r.entries[v]
	i := lowerRoot(es, root)
	if i < len(es) && es[i].Root == root {
		return es[i].Entry, true
	}
	return Entry{}, false
}

// Dist returns root's distance estimate at v (Infinity if absent).
func (r *ExploreResult) Dist(v, root int) float64 {
	if e, ok := r.Get(v, root); ok {
		return e.Dist
	}
	return graph.Infinity
}

// PathToSeed walks parent pointers from v back to the seed of root's
// exploration. Returns nil if v has no entry.
func (r *ExploreResult) PathToSeed(v, root int) []int {
	if _, ok := r.Get(v, root); !ok {
		return nil
	}
	var path []int
	for x := v; x != graph.NoVertex; {
		path = append(path, x)
		e, _ := r.Get(x, root)
		x = e.Parent
	}
	return path
}

// lowerRoot returns the first index in es whose Root is >= root.
func lowerRoot(es []RootEntry, root int) int {
	lo, hi := 0, len(es)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if es[mid].Root < root {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Wire format of an exploration step: 5 words (tag, root, origin, dist,
// ttl), all inline - the hottest message of the whole construction never
// touches the payload arena.
const (
	kindExplore congest.PayloadKind = 1

	exploreMsgWords = 5
)

// Explorer is a reusable exploration workspace bound to one simulator. The
// per-(vertex, root) state lives in root-sorted slices recycled across
// calls, so a steady-state Explore allocates nothing. Not safe for
// concurrent use; create one per goroutine.
type Explorer struct {
	sim     *congest.Simulator
	topo    *graph.CSR
	state   [][]RootEntry
	seeds   []Source
	initial []int
	res     ExploreResult
	stepFn  congest.StepFunc

	// Per-call parameters read by the bound step function.
	hops  int
	limit LimitFunc
}

// NewExplorer creates an exploration workspace over sim.
func NewExplorer(sim *congest.Simulator) *Explorer {
	e := &Explorer{sim: sim, topo: sim.Topo(), state: make([][]RootEntry, sim.N())}
	e.res.entries = e.state
	e.stepFn = e.step
	return e
}

// Explore runs a multi-root, hop-bounded, limit-respecting Bellman-Ford
// exploration in the host graph on the simulator. Every adopted entry
// occupies 3 words (root, dist, parent) at the holding vertex for the
// duration of the exploration - this is exactly the "number of clusters
// containing the vertex" working memory of the paper. The charge is
// released when Explore returns (the peak remains recorded); callers that
// retain entries beyond the exploration charge them separately.
//
// The returned result aliases the Explorer's workspace and is valid until
// the next Explore call on this Explorer.
func (e *Explorer) Explore(sources []Source, opts ExploreOptions) (*ExploreResult, error) {
	n := e.sim.N()
	if opts.Hops < 1 {
		return nil, fmt.Errorf("hopset: explore hop budget %d < 1", opts.Hops)
	}
	maxRounds := opts.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 10*opts.Hops + 4*n + 4096
	}

	// Reset the previous call's state (its result is hereby invalidated) —
	// unless this Explore continues a restored mid-run checkpoint, in which
	// case the lists were just rebuilt by RestoreCkpt and the simulator
	// resumes the interrupted Run at its recorded round (past round 0, so
	// the seeds below are never re-applied).
	if !e.sim.ResumePending() {
		for v := range e.state {
			e.state[v] = e.state[v][:0]
		}
	}

	// Stable-sort the seeds by host vertex so step's round-0 seeding is a
	// binary search. Callers build seed lists in ascending-At order, so the
	// common case is a no-op sortedness check.
	e.seeds = e.seeds[:0]
	for _, s := range sources {
		if s.At < 0 || s.At >= n {
			return nil, fmt.Errorf("hopset: seed at %d out of range", s.At)
		}
		e.seeds = append(e.seeds, s)
	}
	sorted := true
	for i := 1; i < len(e.seeds); i++ {
		if e.seeds[i].At < e.seeds[i-1].At {
			sorted = false
			break
		}
	}
	if !sorted {
		seeds := e.seeds
		sort.SliceStable(seeds, func(i, j int) bool { return seeds[i].At < seeds[j].At })
	}
	e.initial = e.initial[:0]
	for i, s := range e.seeds {
		if i == 0 || s.At != e.seeds[i-1].At {
			e.initial = append(e.initial, s.At)
		}
	}

	e.hops, e.limit = opts.Hops, opts.Limit
	rounds := e.sim.Run(e.initial, maxRounds, e.stepFn)
	e.limit = nil
	if rounds >= maxRounds {
		return nil, fmt.Errorf("hopset: exploration did not converge within %d rounds", maxRounds)
	}
	for v := range e.state {
		if k := len(e.state[v]); k > 0 {
			e.sim.Mem(v).Release(3 * int64(k))
		}
	}
	return &e.res, nil
}

// step is the per-vertex program; bound once in NewExplorer so Run calls
// allocate no method-value closures.
func (e *Explorer) step(v int, ctx *congest.Ctx) {
	if ctx.Round() == 0 {
		for i := seedLo(e.seeds, v); i < len(e.seeds) && e.seeds[i].At == v; i++ {
			s := e.seeds[i]
			e.adopt(v, s.Root, Entry{Dist: s.Dist, Parent: graph.NoVertex, Origin: s.At}, e.hops, ctx, true)
		}
	}
	in := ctx.In()
	for i := range in {
		m := &in[i]
		p := &m.Payload
		if p.Kind != kindExplore {
			continue
		}
		e.adopt(v, congest.WordInt(p.W0),
			Entry{Dist: congest.WordFloat(p.W2), Parent: m.From, Origin: congest.WordInt(p.W1)},
			congest.WordInt(p.W3), ctx, false)
	}
}

// seedLo returns the first index in seeds (sorted by At) whose At is >= v.
func seedLo(seeds []Source, v int) int {
	lo, hi := 0, len(seeds)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if seeds[mid].At < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func (e *Explorer) forward(v int, st *RootEntry, ctx *congest.Ctx) {
	if st.ttl <= 0 {
		return
	}
	if e.limit != nil && !e.limit(v, st.Root, st.Dist) {
		return
	}
	// Neighbors come in the CSR's adjacency order (the order edges were
	// added), which fixes the message stream; arc base+i's weight is an
	// array read.
	to, base := e.topo.NeighborRange(v)
	for i, nb := range to {
		ctx.Send(int(nb), congest.Payload{
			Kind: kindExplore,
			W0:   congest.IntWord(st.Root),
			W1:   congest.IntWord(st.Origin),
			W2:   congest.FloatWord(st.Dist + e.topo.ArcWeight(base+i)),
			W3:   congest.IntWord(st.ttl - 1),
		}, exploreMsgWords)
	}
}

func (e *Explorer) adopt(v, root int, en Entry, ttl int, ctx *congest.Ctx, isSeed bool) {
	es := e.state[v]
	i := lowerRoot(es, root)
	if i >= len(es) || es[i].Root != root {
		// A vertex only stores an estimate it would act on: seeds and
		// estimates passing the forwarding limit. Failing messages are
		// processed streaming and dropped (they cost no memory).
		if !isSeed && e.limit != nil && !e.limit(v, root, en.Dist) {
			return
		}
		es = append(es, RootEntry{})
		copy(es[i+1:], es[i:])
		es[i] = RootEntry{Root: root, Entry: en, ttl: ttl}
		e.state[v] = es
		ctx.Mem().Charge(3)
		e.forward(v, &e.state[v][i], ctx)
		return
	}
	cur := &es[i]
	distBetter := en.Dist < cur.Dist
	ttlBetter := ttl > cur.ttl
	if !distBetter && !ttlBetter {
		return
	}
	if distBetter {
		cur.Entry = en
	}
	if ttlBetter {
		cur.ttl = ttl
	}
	e.forward(v, cur, ctx)
}

// Explore is the one-shot convenience wrapper: a fresh workspace per call,
// so the result stays valid indefinitely. Loops should hold an Explorer.
func Explore(sim *congest.Simulator, sources []Source, opts ExploreOptions) (*ExploreResult, error) {
	return NewExplorer(sim).Explore(sources, opts)
}

// DistToSet runs a single set-source exploration from all seeds (shared
// root) on this Explorer, returning per-vertex distance, parent and nearest
// seed. Vertices beyond the hop budget hold Infinity. The returned slices are
// fresh copies, valid beyond the next Explore on this workspace.
func (e *Explorer) DistToSet(seeds []int, hops int) (dist []float64, parent, origin []int, err error) {
	const setRoot = -1
	srcs := make([]Source, 0, len(seeds))
	for _, s := range seeds {
		srcs = append(srcs, Source{Root: setRoot, At: s, Dist: 0})
	}
	n := e.sim.N()
	dist = make([]float64, n)
	parent = make([]int, n)
	origin = make([]int, n)
	for i := range dist {
		dist[i] = graph.Infinity
		parent[i] = graph.NoVertex
		origin[i] = graph.NoVertex
	}
	if len(seeds) == 0 {
		return dist, parent, origin, nil
	}
	res, err := e.Explore(srcs, ExploreOptions{Hops: hops})
	if err != nil {
		return nil, nil, nil, err
	}
	for v := 0; v < n; v++ {
		if en, ok := res.Get(v, setRoot); ok {
			dist[v] = en.Dist
			parent[v] = en.Parent
			origin[v] = en.Origin
		}
	}
	return dist, parent, origin, nil
}

// DistToSet is the one-shot convenience wrapper over a fresh Explorer.
func DistToSet(sim *congest.Simulator, seeds []int, hops int) (dist []float64, parent, origin []int, err error) {
	return NewExplorer(sim).DistToSet(seeds, hops)
}
