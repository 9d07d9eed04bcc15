package core

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"lowmemroute/internal/clusterroute"
	"lowmemroute/internal/congest"
	"lowmemroute/internal/graph"
	"lowmemroute/internal/hopset"
	"lowmemroute/internal/obs"
	"lowmemroute/internal/treeroute"
)

const debugClusters = false

// centry is one root's record at a host vertex during the approximate
// cluster growth.
type centry struct {
	dist   float64
	parent int
	// via holds the tail x of the hopset edge (x, w) that produced this
	// estimate, or graph.NoVertex when it came over the host graph. (The
	// head is always the holding vertex itself.)
	via int
	// force marks unconditional membership via path recovery (Claim 9's
	// "vertices of P(e) join the tree").
	force bool
}

// rootCEntry is a centry tagged with its root; per-vertex entries are kept
// root-sorted so both wire images and relaxation schedules are canonical
// without per-iteration key sorts.
type rootCEntry struct {
	root int
	centry
	dirty bool
}

// lowerCRoot returns the first index in es whose root is >= root.
func lowerCRoot(es []rootCEntry, root int) int {
	lo, hi := 0, len(es)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if es[mid].root < root {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Wire format of the H-step broadcast of the approximate cluster growth: a
// virtual vertex's limited estimates plus its hopset out-edges. Inline words
// carry the sender and the estimate count; the tail is (root, dist) pairs
// followed by (To, Weight, Level) edge triples.
const kindHMsg congest.PayloadKind = 3

// vr addresses one (vertex, root) estimate on the dirty worklist.
type vr struct{ v, r int }

// clusterGrowth is the reusable workspace of growApproxClusters: estimates,
// the dirty worklist, seed/message/tail buffers and the bound step/handler
// functions all persist across levels, so steady-state growth iterations
// allocate nothing.
type clusterGrowth struct {
	b   *builder
	est [][]rootCEntry

	dirtyList []vr
	srcs      []hopset.Source
	msgs      []congest.BroadcastMsg
	extBufs   [][]uint64
	rev       []int

	ex        *hopset.Explorer
	handler   func(w int, m *congest.BroadcastMsg)
	forwardFn hopset.LimitFunc
	hostFn    hopset.LimitFunc

	// Per-call parameters of the limit rules.
	bound []float64
	eps   float64
}

func newClusterGrowth(b *builder) *clusterGrowth {
	g := &clusterGrowth{
		b:   b,
		est: make([][]rootCEntry, b.n),
		ex:  hopset.NewExplorer(b.sim),
		eps: b.o.Epsilon,
	}
	g.handler = g.onHMsg
	g.forwardFn = g.forwardLimit
	g.hostFn = g.hostLimit
	return g
}

func (g *clusterGrowth) hostCap(v int) float64 { return g.bound[v] / (1 + g.eps) }
func (g *clusterGrowth) virtCap(v int) float64 {
	return g.bound[v] / ((1 + g.eps) * (1 + g.eps))
}

func (g *clusterGrowth) forwardLimit(v, root int, d float64) bool {
	if g.b.vg.IsMember(v) {
		return d < g.virtCap(v)
	}
	return d < g.hostCap(v)
}

func (g *clusterGrowth) hostLimit(v, root int, d float64) bool { return d < g.hostCap(v) }

// get returns the entry for (v, root), or nil.
func (g *clusterGrowth) get(v, root int) *rootCEntry {
	es := g.est[v]
	if i := lowerCRoot(es, root); i < len(es) && es[i].root == root {
		return &es[i]
	}
	return nil
}

// newEntry inserts (keeping root order) and charges the 3 retained words
// (dist, parent, root id) to v's meter. The returned pointer is valid until
// the next insert at v.
func (g *clusterGrowth) newEntry(v, root int, e centry) *rootCEntry {
	es := g.est[v]
	i := lowerCRoot(es, root)
	es = append(es, rootCEntry{})
	copy(es[i+1:], es[i:])
	es[i] = rootCEntry{root: root, centry: e}
	g.est[v] = es
	g.b.sim.Mem(v).Charge(3)
	return &g.est[v][i]
}

func (g *clusterGrowth) markDirty(v, r int, ent *rootCEntry) {
	if !ent.dirty {
		ent.dirty = true
		g.dirtyList = append(g.dirtyList, vr{v, r})
	}
}

// extBuf returns the reusable tail buffer for broadcast message index i
// (broadcast payload tails stay caller-owned, so per-index pooling is safe).
func (g *clusterGrowth) extBuf(i, n int) []uint64 {
	for len(g.extBufs) <= i {
		g.extBufs = append(g.extBufs, nil)
	}
	if cap(g.extBufs[i]) < n {
		g.extBufs[i] = make([]uint64, n)
	}
	return g.extBufs[i][:n]
}

// relaxEsts relaxes every shipped (root, dist) pair across one hopset edge
// of weight w incident to vertex w (from sender u).
func (g *clusterGrowth) relaxEsts(w, u int, ests []uint64, weight float64) {
	for j := 0; j+1 < len(ests); j += 2 {
		r := congest.WordInt(ests[j])
		alt := congest.WordFloat(ests[j+1]) + weight
		if cur := g.get(w, r); cur != nil {
			if alt >= cur.dist {
				continue
			}
			cur.dist = alt
			cur.via = u
			cur.parent = graph.NoVertex
			g.markDirty(w, r, cur)
		} else {
			ent := g.newEntry(w, r, centry{dist: alt, parent: graph.NoVertex, via: u})
			g.markDirty(w, r, ent)
		}
	}
}

// onHMsg handles one H-step broadcast delivery at virtual vertex w.
func (g *clusterGrowth) onHMsg(w int, m *congest.BroadcastMsg) {
	p := &m.Payload
	if p.Kind != kindHMsg {
		return
	}
	u := congest.WordInt(p.W0)
	if !g.b.vg.IsMember(w) || w == u {
		return
	}
	ne := congest.WordInt(p.W1)
	ests := p.Ext[:2*ne]
	edges := p.Ext[2*ne:]
	// Forward direction: an out-edge (u -> w) relaxes w.
	for j := 0; j+2 < len(edges); j += 3 {
		if congest.WordInt(edges[j]) == w {
			g.relaxEsts(w, u, ests, congest.WordFloat(edges[j+1]))
		}
	}
	// Reverse direction: w's own out-edge (w -> u) relaxes w.
	for _, e := range g.b.hs.Out(w) {
		if e.To == u {
			g.relaxEsts(w, u, ests, e.Weight)
		}
	}
}

// approxClusters grows the approximate clusters C̃(v) of every high-level
// center by multi-root limited Bellman-Ford in G' ∪ H (the paper's
// Approximate Clusters paragraph): per-iteration B-bounded explorations in
// G cover the implicit E', a broadcast pass covers H (out-edges are shared
// across all clusters, as the paper notes), limits follow the
// (1+ε)/(1+ε)^2 rules, used hopset edges trigger path-recovery joins, and a
// final limited exploration completes the clusters in G.
func (b *builder) approxClusters() error {
	for i := b.kHalf; i < b.k; i++ {
		var roots []int
		for _, v := range b.levels[i] {
			if b.topOf[v] == i {
				roots = append(roots, v)
			}
		}
		if len(roots) == 0 {
			continue
		}
		if err := b.growApproxClusters(i, roots); err != nil {
			return fmt.Errorf("core: level %d approximate clusters: %w", i, err)
		}
	}
	return nil
}

func (b *builder) growApproxClusters(level int, roots []int) error {
	if b.cg == nil {
		b.cg = newClusterGrowth(b)
	}
	if err := b.cg.grow(level, roots); err != nil {
		return err
	}
	return b.cg.assembleTrees(roots)
}

// grow runs the growth iterations, path recovery, and the final limited
// exploration; the results stay in the workspace for assembleTrees. The
// meter charges of adopted estimates (3 words each in newEntry) model the
// retained cluster knowledge and are intentionally not released.
func (g *clusterGrowth) grow(level int, roots []int) error {
	b := g.b
	g.bound = b.pivotD[level+1]
	for v := range g.est {
		g.est[v] = g.est[v][:0]
	}
	g.dirtyList = g.dirtyList[:0]

	for _, r := range roots {
		ent := g.newEntry(r, r, centry{dist: 0, parent: graph.NoVertex, via: graph.NoVertex, force: true})
		g.markDirty(r, r, ent)
	}

	maxIter := b.o.Beta
	if maxIter <= 0 {
		maxIter = 4 * (b.vg.M() + 1)
	}
	iters := 0
	for iter := 0; iter < maxIter && len(g.dirtyList) > 0; iter++ {
		iters = iter + 1
		// E' step: re-propagate every estimate that changed since the last
		// exploration (monotone BF: older influence already propagated).
		// Consume the worklist in (vertex, root) order so seed order - and
		// with it Explore's tie-breaking - is canonical.
		slices.SortFunc(g.dirtyList, func(a, c vr) int {
			if a.v != c.v {
				return a.v - c.v
			}
			return a.r - c.r
		})
		g.srcs = g.srcs[:0]
		for _, k := range g.dirtyList {
			e := g.get(k.v, k.r)
			e.dirty = false
			if g.forwardLimit(k.v, k.r, e.dist) || k.v == k.r {
				g.srcs = append(g.srcs, hopset.Source{Root: k.r, At: k.v, Dist: e.dist})
			}
		}
		g.dirtyList = g.dirtyList[:0]
		if len(g.srcs) > 0 {
			ex, err := g.ex.Explore(g.srcs, hopset.ExploreOptions{
				Hops:  b.vg.B(),
				Limit: g.forwardFn,
			})
			if err != nil {
				return err
			}
			for v := 0; v < b.n; v++ {
				for _, en := range ex.At(v) {
					if en.Parent == graph.NoVertex {
						continue // the seed's own echo
					}
					r := en.Root
					if cur := g.get(v, r); cur != nil {
						if en.Dist >= cur.dist {
							continue
						}
						cur.dist = en.Dist
						cur.parent = en.Parent
						cur.via = graph.NoVertex
						g.markDirty(v, r, cur)
					} else {
						ent := g.newEntry(v, r, centry{dist: en.Dist, parent: en.Parent, via: graph.NoVertex})
						g.markDirty(v, r, ent)
					}
				}
			}
		}

		// H step: one broadcast; each virtual vertex ships its limited
		// estimates for all clusters plus its (cluster-independent)
		// out-edges. Estimates travel root-sorted: the per-vertex entry
		// slices already are, so the wire image is canonical by
		// construction.
		g.msgs = g.msgs[:0]
		for _, u := range b.vg.Members() {
			es := g.est[u]
			out := b.hs.Out(u)
			buf := g.extBuf(len(g.msgs), 2*len(es)+3*len(out))
			ne := 0
			for idx := range es {
				if e := &es[idx]; e.dist < g.virtCap(u) || u == e.root {
					buf[2*ne] = congest.IntWord(e.root)
					buf[2*ne+1] = congest.FloatWord(e.dist)
					ne++
				}
			}
			if ne == 0 {
				continue
			}
			pos := 2 * ne
			for _, ed := range out {
				buf[pos] = congest.IntWord(ed.To)
				buf[pos+1] = congest.FloatWord(ed.Weight)
				buf[pos+2] = congest.IntWord(ed.Level)
				pos += 3
			}
			g.msgs = append(g.msgs, congest.BroadcastMsg{
				Origin: u,
				Payload: congest.Payload{
					Kind: kindHMsg,
					W0:   congest.IntWord(u),
					W1:   congest.IntWord(ne),
					Ext:  buf[:pos],
				},
				Words: 1 + 2*ne + 3*len(out),
			})
		}
		b.sim.Broadcast(g.msgs, g.handler)
	}
	if iters > b.maxBeta {
		b.maxBeta = iters
	}

	// Path recovery: every estimate realised through a hopset edge joins
	// all vertices of the edge's underlying host path to the cluster
	// (Claim 9) and fixes the endpoint's host parent.
	maxPath := 0
	for w := 0; w < b.n; w++ {
		for idx := 0; idx < len(g.est[w]); idx++ {
			r, x := g.est[w][idx].root, g.est[w][idx].via
			if x == graph.NoVertex {
				continue
			}
			path, ok := b.hs.Path(x, w)
			if !ok {
				if path, ok = b.hs.Path(w, x); ok {
					// Reverse so the walk goes x -> w.
					if cap(g.rev) < len(path) {
						g.rev = make([]int, len(path))
					}
					rev := g.rev[:len(path)]
					for i, p := range path {
						rev[len(path)-1-i] = p
					}
					path = rev
				}
			}
			if !ok || len(path) < 2 {
				return fmt.Errorf("core: missing recovery path for hopset edge (%d,%d)", x, w)
			}
			if len(path) > maxPath {
				maxPath = len(path)
			}
			src := g.get(x, r)
			if src == nil {
				return fmt.Errorf("core: missing source estimate for hopset edge (%d,%d)", x, w)
			}
			// Cumulative distances along the path from x.
			acc := src.dist
			for i := 1; i < len(path); i++ {
				u, prev := path[i], path[i-1]
				wgt, okw := b.topo.EdgeWeight(prev, u)
				if !okw {
					return fmt.Errorf("core: recovery path hop {%d,%d} not an edge", prev, u)
				}
				acc += wgt
				cur := g.get(u, r)
				switch {
				case cur == nil:
					g.newEntry(u, r, centry{dist: acc, parent: prev, via: graph.NoVertex, force: true})
				case (u == w && cur.parent == graph.NoVertex) || acc < cur.dist:
					// Anchor to the recovery path: either this improves the
					// estimate, or this is the walk of u's own hopset edge
					// (u is its head) and the entry has no host parent yet.
					// In the latter case acc can exceed cur.dist by
					// floating-point noise (the edge weight was accumulated
					// in the opposite path orientation); adopting acc keeps
					// the parent chain's distances consistent and strictly
					// decreasing.
					cur.dist = acc
					cur.parent = prev
					cur.via = graph.NoVertex
					cur.force = true
				default:
					cur.force = true
				}
			}
		}
	}
	// Protocol cost (pipelined notifications along all used paths).
	b.sim.AddRounds(int64(maxPath) + 2*int64(b.sim.Diameter()))
	// Final limited B-bounded exploration in G from every member estimate,
	// seeded in (vertex, root) order (Explore's tie-breaking follows seed
	// order, so the schedule must be canonical).
	g.srcs = g.srcs[:0]
	for v := 0; v < b.n; v++ {
		for idx := range g.est[v] {
			if e := &g.est[v][idx]; e.force || e.dist < g.hostCap(v) {
				g.srcs = append(g.srcs, hopset.Source{Root: e.root, At: v, Dist: e.dist})
			}
		}
	}
	if len(g.srcs) > 0 {
		ex, err := g.ex.Explore(g.srcs, hopset.ExploreOptions{Hops: b.vg.B(), Limit: g.hostFn})
		if err != nil {
			return err
		}
		for v := 0; v < b.n; v++ {
			for _, en := range ex.At(v) {
				if en.Parent == graph.NoVertex {
					continue
				}
				if cur := g.get(v, en.Root); cur != nil {
					if en.Dist >= cur.dist {
						continue
					}
					cur.dist = en.Dist
					cur.parent = en.Parent
					cur.via = graph.NoVertex
				} else {
					g.newEntry(v, en.Root, centry{dist: en.Dist, parent: en.Parent, via: graph.NoVertex})
				}
			}
		}
	}
	return nil
}

// assembleTrees builds one tree per root from the workspace estimates in a
// single pass over the vertices: members are the root, forced joiners, and
// vertices whose estimate beats the (1+ε)-relaxed bound. Scanning vertices
// ascending makes each root's member bucket sorted, so the buckets feed
// NewTreeCompact directly and no host-sized per-root array is allocated.
func (g *clusterGrowth) assembleTrees(roots []int) error {
	b := g.b
	slot := make(map[int]int, len(roots))
	for i, r := range roots {
		slot[r] = i
	}
	verts := make([][]int32, len(roots))
	pars := make([][]int32, len(roots))
	for v := 0; v < b.n; v++ {
		for idx := range g.est[v] {
			e := &g.est[v][idx]
			i, ok := slot[e.root]
			if !ok {
				continue
			}
			if v != e.root && !e.force && e.dist >= g.hostCap(v) {
				continue
			}
			p := graph.NoVertex
			if v != e.root {
				p = e.parent
			}
			verts[i] = append(verts[i], int32(v))
			pars[i] = append(pars[i], int32(p))
		}
	}
	for i, r := range roots {
		tree, err := graph.NewTreeCompact(r, b.n, verts[i], pars[i])
		if err != nil {
			if debugClusters {
				for v := 0; v < b.n; v++ {
					if e := g.get(v, r); e != nil {
						fmt.Printf("DBG root=%d v=%d dist=%v parent=%d via=%v force=%v hostCap=%v virt=%v member=%v\n",
							r, v, e.dist, e.parent, e.via, e.force, g.hostCap(v), b.vg.IsMember(v),
							v == r || e.force || e.dist < g.hostCap(v))
					}
				}
			}
			return fmt.Errorf("core: approximate cluster tree of %d: %w", r, err)
		}
		b.trees[r] = tree
	}
	return nil
}

// assemble runs the low-memory tree routing on every cluster tree in
// parallel and produces the final tables and labels.
func (b *builder) assemble() (*Scheme, error) {
	centers := make([]int, 0, len(b.trees))
	for c := range b.trees {
		centers = append(centers, c)
	}
	sort.Ints(centers)
	trees := make([]*graph.Tree, 0, len(centers))
	perVertex := make([]int, b.n)
	portals := 0
	for _, c := range centers {
		t := b.trees[c]
		trees = append(trees, t)
		for _, v := range t.Members() {
			perVertex[v]++
		}
	}
	s := 1
	for _, c := range perVertex {
		if c > s {
			s = c
		}
	}
	q := b.o.TreeQ
	if q <= 0 {
		q = 1 / math.Sqrt(float64(s)*float64(b.n))
	}
	maxOffset := int(math.Sqrt(float64(s)*float64(b.n))*math.Log2(float64(b.n)+1)) + 1
	b.o.Metrics.SetPhase(obs.Phase{Name: "tree-routing", Done: b.phasesDone, Total: numBuildPhases})
	sp := b.o.Trace.Begin("tree-routing")
	before := b.sim.Rounds()
	res, err := treeroute.BuildDistributed(b.sim, trees, treeroute.DistOptions{
		Q:         q,
		Seed:      b.o.Seed + 2,
		MaxOffset: maxOffset,
		Trace:     b.o.Trace,
		Ckpt:      b.o.Ckpt,
	})
	b.phaseRounds["tree-routing"] += b.sim.Rounds() - before
	sp.End()
	b.phasesDone++
	b.o.Metrics.SetPhase(obs.Phase{Name: "tree-routing", Done: b.phasesDone, Total: numBuildPhases})
	if err != nil {
		return nil, fmt.Errorf("core: tree routing: %w", err)
	}
	for _, p := range res.Portals {
		portals += p
	}

	scheme := &Scheme{Scheme: clusterroute.New(b.k, b.n)}
	treeSchemes := make(map[int]*treeroute.Scheme, len(centers))
	for j, c := range centers {
		ts := res.Schemes[j]
		treeSchemes[c] = ts
		scheme.AddTree(c, b.trees[c], b.topo, ts)
	}
	for v := 0; v < b.n; v++ {
		for j := 0; j < b.k; j++ {
			root := b.pivotRoot[j][v]
			if root == graph.NoVertex {
				continue
			}
			scheme.AddLabelEntry(v, j, root, treeSchemes[root])
		}
		b.sim.Mem(v).Charge(int64(2 * b.k)) // pivot ids in the label
	}

	scheme.Stats = Stats{
		K:              b.k,
		N:              b.n,
		B:              b.vg.B(),
		VirtualSize:    b.vg.M(),
		HopsetEdges:    b.hs.Size(),
		HopsetArbor:    b.hs.MaxOutDegree(),
		BetaRealised:   b.maxBeta,
		Clusters:       len(centers),
		MaxTreesPerVtx: s,
		TreePortals:    portals,
		PhaseRounds:    b.phaseRounds,
	}
	return scheme, nil
}
