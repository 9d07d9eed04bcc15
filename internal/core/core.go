// Package core implements the paper's primary contribution (Appendix B,
// Theorem 3): a distributed construction of a Thorup-Zwick-style compact
// routing scheme in the CONGEST RAM model with low per-vertex memory.
//
// The construction:
//
//  1. samples the hierarchy A_0 ⊇ A_1 ⊇ … ⊇ A_k = ∅;
//  2. builds exact clusters for the low levels i < ⌈k/2⌉ by limited
//     Bellman-Ford explorations (hop-bounded per Claim 8, pruned by the
//     next level's pivot distances);
//  3. forms the virtual graph G' on V' = A_{⌈k/2⌉} whose edges are
//     B-bounded distances in G - G' is never materialised - and builds a
//     (β,ε)-hopset H for it with bounded arboricity and path recovery
//     (internal/hopset);
//  4. computes approximate pivots for the high levels by hopset-accelerated
//     Bellman-Ford (each iteration's B-bounded exploration also delivers
//     d̂(·, A_{i+1}) to every host vertex, eq. (5));
//  5. grows approximate clusters for the high levels by multi-root limited
//     Bellman-Ford in G' ∪ H, with the paper's (1+ε)-limit rules bounding
//     memory and congestion, path-recovery joins for used hopset edges
//     (Claims 9-10), and a final limited B-bounded exploration in G;
//  6. runs the low-memory distributed tree routing of Section 3
//     (internal/treeroute) on every cluster tree in parallel, producing
//     tables of Õ(n^{1/k}) words and labels of O(k log n) words.
//
// Routing picks, for a destination label, the lowest level whose pivot
// cluster contains both endpoints and follows the exact tree-routing scheme
// of that cluster tree (stretch 4k-3+o(1), the variant the paper describes;
// the 4k-5 refinement of [TZ01b] trades a polylog table factor and is
// orthogonal to the paper's contribution).
package core

import (
	"fmt"
	"math"
	"math/rand"

	"lowmemroute/internal/clusterroute"
	"lowmemroute/internal/congest"
	"lowmemroute/internal/dataplane"
	"lowmemroute/internal/graph"
	"lowmemroute/internal/hopset"
	"lowmemroute/internal/obs"
	"lowmemroute/internal/trace"
)

// Options configures Build.
type Options struct {
	// K is the hierarchy depth; stretch is 4K-3. Must be >= 1.
	K int
	// Epsilon is the approximation slack of the high-level machinery.
	// Defaults to 0.05. (The paper's 1/(48k^4) requirement is what makes
	// the o(1) in the stretch rigorous; any small ε preserves the shape.)
	Epsilon float64
	// Seed drives all sampling.
	Seed int64
	// BScale scales every hop budget: level-j explorations use
	// min(n, ⌈BScale·n^{j/k}·ln n⌉) hops and B uses j = ⌈k/2⌉. The paper's
	// constant is 4; the default 1.5 keeps laptop-scale runs faithful
	// without the galactic slack.
	BScale float64
	// Beta caps Bellman-Ford iterations over G' ∪ H (0 = run to
	// convergence and report the realised β).
	Beta int
	// HopsetKappa is the hopset hierarchy depth (default 3).
	HopsetKappa int
	// TreeQ overrides the tree-routing portal probability (0 = auto).
	TreeQ float64
	// Trace, when non-nil, records one span per construction phase (the
	// span tree behind Stats.PhaseRounds) with nested sub-phase spans from
	// treeroute and hopset. Nil disables span recording at no cost.
	Trace *trace.Recorder
	// Metrics, when non-nil, receives live build progress: the current
	// construction phase (obs.Registry.SetPhase) for the CLI progress
	// reporter and the /metrics endpoint. Pair it with
	// congest.WithMetrics on the simulator for the throughput counters.
	// Nil disables publishing at no cost.
	Metrics *obs.Registry
	// Ckpt, when non-nil, checkpoints the build: Build attaches it to the
	// simulator and the tree-routing phases record themselves as resumable
	// units. The phases before tree routing are cheap (a few percent of a
	// large build's wall clock) and deterministically replay from Seed; on
	// resume they re-execute, after which completed tree phases are skipped
	// and the checkpointed engine/builder state is restored. Check
	// Ckpt.Err() after Build for write failures or cursor mismatches.
	Ckpt *congest.Checkpointer
}

// numBuildPhases is the phase count published to Options.Metrics: the five
// timed phases of Build plus the tree-routing phase run during assemble.
const numBuildPhases = 6

func (o *Options) withDefaults() Options {
	out := *o
	if out.Epsilon <= 0 {
		out.Epsilon = 0.05
	}
	if out.BScale <= 0 {
		out.BScale = 1.5
	}
	if out.HopsetKappa < 2 {
		out.HopsetKappa = 3
	}
	return out
}

// Stats records construction-level quantities for the evaluation harness.
type Stats struct {
	K              int
	N              int
	B              int // realised B (hops defining E')
	VirtualSize    int // |V'| = |A_{⌈k/2⌉}|
	HopsetEdges    int
	HopsetArbor    int // max out-degree (arboricity witness)
	BetaRealised   int // max BF iterations used by any high-level phase
	Clusters       int
	MaxTreesPerVtx int
	TreePortals    int // total portals over all cluster trees

	// PhaseRounds breaks the total round count down by construction phase
	// (exact-pivots, low-clusters, hopset, approx-pivots, approx-clusters,
	// tree-routing).
	PhaseRounds map[string]int64
}

// Scheme is the complete routing scheme produced by Build. It embeds the
// cluster-forest control-plane state of internal/clusterroute and holds
// the data-plane table Build compiled from it, which every Route walks.
// The table is a snapshot: a caller that mutates Tables or Labels after
// Build must compile again (dataplane.Compile) to route on the change.
type Scheme struct {
	*clusterroute.Scheme
	Stats Stats

	tab *dataplane.Table
}

// Compiled returns the forwarding table Build compiled from the scheme.
func (s *Scheme) Compiled() *dataplane.Table { return s.tab }

// Route walks a message from src to dst through the compiled table: the
// lowest level of dst's label whose cluster contains src, then the exact
// tree route in that cluster. Endpoints outside [0, n) are an error.
func (s *Scheme) Route(src, dst int) ([]int, float64, error) {
	return s.tab.Route(src, dst)
}

// RouteAppend is Route with a caller-provided path buffer: the vertex path
// is appended to path, so loops issuing many queries allocate only on
// buffer growth.
func (s *Scheme) RouteAppend(src, dst int, path []int) ([]int, float64, error) {
	return s.tab.RouteAppend(src, dst, path)
}

// Build runs the full distributed construction on the simulator.
func Build(sim *congest.Simulator, opts Options) (*Scheme, error) {
	o := opts.withDefaults()
	n := sim.N()
	k := o.K
	if k < 1 {
		return nil, fmt.Errorf("core: k=%d < 1", k)
	}
	if n == 0 {
		return compiled(&Scheme{Scheme: clusterroute.New(k, 0)}, nil)
	}
	topo := sim.Topo()
	if err := o.Ckpt.Attach(sim); err != nil {
		return nil, fmt.Errorf("core: attach checkpointer: %w", err)
	}
	rng := rand.New(rand.NewSource(o.Seed))

	b := &builder{
		sim: sim, topo: topo, n: n, k: k, o: o, rng: rng,
		phaseRounds: make(map[string]int64),
	}
	b.sampleHierarchy()
	if err := b.timed("exact-pivots", b.exactPivots); err != nil {
		return nil, err
	}
	if err := b.timed("low-clusters", b.lowClusters); err != nil {
		return nil, err
	}
	if err := b.timed("hopset", b.buildHopset); err != nil {
		return nil, err
	}
	if err := b.timed("approx-pivots", b.approxPivots); err != nil {
		return nil, err
	}
	if err := b.timed("approx-clusters", b.approxClusters); err != nil {
		return nil, err
	}
	return compiled(b.assemble())
}

// compiled compiles a finished scheme's forwarding table, once.
func compiled(s *Scheme, err error) (*Scheme, error) {
	if err != nil {
		return nil, err
	}
	s.tab = dataplane.Compile(s.Scheme)
	return s, nil
}

// timed runs a phase under a trace span, records the simulation rounds
// it consumed, and publishes the phase to the metrics registry so the
// progress reporter and /metrics can tell where a long build is.
func (b *builder) timed(name string, phase func() error) error {
	b.o.Metrics.SetPhase(obs.Phase{Name: name, Done: b.phasesDone, Total: numBuildPhases})
	sp := b.o.Trace.Begin(name)
	before := b.sim.Rounds()
	err := phase()
	b.phaseRounds[name] += b.sim.Rounds() - before
	sp.End()
	b.phasesDone++
	b.o.Metrics.SetPhase(obs.Phase{Name: name, Done: b.phasesDone, Total: numBuildPhases})
	return err
}

type builder struct {
	sim  *congest.Simulator
	topo *graph.CSR
	n    int
	k    int
	o    Options
	rng  *rand.Rand

	kHalf  int
	levels [][]int // A_0 .. A_{k-1}
	topOf  []int   // highest level containing each vertex

	// pivotD[j][v] = (approximate) d(v, A_j); pivotRoot[j][v] = the pivot.
	pivotD    [][]float64
	pivotRoot [][]int

	vg *hopset.VirtualGraph
	hs *hopset.Hopset

	// Cluster trees per center (compact member-indexed trees; membership
	// distances are not retained - nothing downstream reads them).
	trees   map[int]*graph.Tree
	maxBeta int

	// cg is the reusable approximate-cluster-growth workspace (created on
	// first use, recycled across levels).
	cg *clusterGrowth

	phaseRounds map[string]int64
	phasesDone  int
}

// hopBudget returns the level-j exploration hop budget
// min(n, ⌈BScale·n^{j/k}·ln n⌉).
func (b *builder) hopBudget(j int) int {
	h := int(math.Ceil(b.o.BScale * math.Pow(float64(b.n), float64(j)/float64(b.k)) * math.Log(float64(b.n)+1)))
	if h < 2 {
		h = 2
	}
	if h > b.n {
		h = b.n
	}
	return h
}

func (b *builder) sampleHierarchy() {
	n, k := b.n, b.k
	b.kHalf = (k + 1) / 2
	p := math.Pow(float64(n), -1/float64(k))
	b.levels = make([][]int, k)
	b.levels[0] = make([]int, n)
	for v := 0; v < n; v++ {
		b.levels[0][v] = v
	}
	for i := 1; i < k; i++ {
		for _, v := range b.levels[i-1] {
			if b.rng.Float64() < p {
				b.levels[i] = append(b.levels[i], v)
			}
		}
	}
	// The scheme needs a nonempty top level; reseed it from the deepest
	// nonempty level (A_0 is always nonempty) and restore nesting by
	// filling any emptied intermediate levels from above.
	if k > 1 && len(b.levels[k-1]) == 0 {
		j := k - 2
		for len(b.levels[j]) == 0 {
			j--
		}
		b.levels[k-1] = []int{b.levels[j][b.rng.Intn(len(b.levels[j]))]}
	}
	for i := k - 2; i >= 1; i-- {
		if len(b.levels[i]) == 0 {
			b.levels[i] = append([]int(nil), b.levels[i+1]...)
		}
	}
	b.topOf = make([]int, n)
	for i := 0; i < k; i++ {
		for _, v := range b.levels[i] {
			b.topOf[v] = i
		}
	}
	b.pivotD = make([][]float64, k+1)
	b.pivotRoot = make([][]int, k+1)
	// Level 0: every vertex is its own pivot at distance 0.
	d0 := make([]float64, n)
	r0 := make([]int, n)
	for v := 0; v < n; v++ {
		r0[v] = v
	}
	b.pivotD[0], b.pivotRoot[0] = d0, r0
	// Level k: empty set, infinite distance.
	dk := make([]float64, n)
	rk := make([]int, n)
	for v := 0; v < n; v++ {
		dk[v] = graph.Infinity
		rk[v] = graph.NoVertex
	}
	b.pivotD[k], b.pivotRoot[k] = dk, rk
	b.trees = make(map[int]*graph.Tree)
}

// exactPivots computes d(·, A_j) for the low levels 1..⌈k/2⌉ by set-source
// explorations with the Claim 8 hop budgets.
func (b *builder) exactPivots() error {
	for j := 1; j <= b.kHalf && j < b.k; j++ {
		dist, _, origin, err := hopset.DistToSet(b.sim, b.levels[j], b.hopBudget(j))
		if err != nil {
			return fmt.Errorf("core: pivots for level %d: %w", j, err)
		}
		b.pivotD[j] = dist
		b.pivotRoot[j] = origin
		for v := range dist {
			if dist[v] != graph.Infinity {
				b.sim.Mem(v).Charge(2) // retained pivot distance + id
			}
		}
	}
	return nil
}

// lowClusters grows the exact clusters of every center whose top level is
// below ⌈k/2⌉, by limited explorations pruned at the next level's pivot
// distance.
func (b *builder) lowClusters() error {
	for i := 0; i < b.kHalf && i < b.k; i++ {
		bound := b.pivotD[i+1]
		var srcs []hopset.Source
		for _, w := range b.levels[i] {
			if b.topOf[w] == i {
				srcs = append(srcs, hopset.Source{Root: w, At: w, Dist: 0})
			}
		}
		if len(srcs) == 0 {
			continue
		}
		limit := func(v, root int, d float64) bool { return d < bound[v] }
		res, err := hopset.Explore(b.sim, srcs, hopset.ExploreOptions{
			Hops:  b.hopBudget(i + 1),
			Limit: limit,
		})
		if err != nil {
			return fmt.Errorf("core: level %d clusters: %w", i, err)
		}
		if err := b.treesFromEntries(srcs, res, bound); err != nil {
			return err
		}
	}
	return nil
}

// treesFromEntries extracts every source root's cluster tree from the
// exploration entries in a single pass over the vertices: members are
// vertices whose estimate beats the bound (the root always). Because
// vertices are scanned ascending, each root's member bucket arrives
// strictly sorted and feeds NewTreeCompact directly - no per-root
// host-sized parent array is ever allocated.
func (b *builder) treesFromEntries(srcs []hopset.Source, res *hopset.ExploreResult, bound []float64) error {
	slot := make(map[int]int, len(srcs))
	for i, s := range srcs {
		slot[s.Root] = i
	}
	verts := make([][]int32, len(srcs))
	pars := make([][]int32, len(srcs))
	for v := 0; v < b.n; v++ {
		for _, en := range res.At(v) {
			if v != en.Root && en.Dist >= bound[v] {
				continue
			}
			i, ok := slot[en.Root]
			if !ok {
				continue
			}
			p := graph.NoVertex
			if v != en.Root {
				p = en.Parent
			}
			verts[i] = append(verts[i], int32(v))
			pars[i] = append(pars[i], int32(p))
			b.sim.Mem(v).Charge(3) // retained cluster entry
		}
	}
	for i, s := range srcs {
		tree, err := graph.NewTreeCompact(s.Root, b.n, verts[i], pars[i])
		if err != nil {
			return fmt.Errorf("core: cluster of %d: %w", s.Root, err)
		}
		b.trees[s.Root] = tree
	}
	return nil
}

func (b *builder) buildHopset() error {
	var members []int
	if b.kHalf < b.k {
		members = b.levels[b.kHalf]
	}
	vg, err := hopset.NewVirtualGraphN(b.n, members, b.hopBudget(b.kHalf))
	if err != nil {
		return fmt.Errorf("core: virtual graph: %w", err)
	}
	b.vg = vg
	hs, err := hopset.Build(b.sim, vg, hopset.Options{
		Kappa: b.o.HopsetKappa,
		Seed:  b.o.Seed + 1,
		Trace: b.o.Trace,
	})
	if err != nil {
		return fmt.Errorf("core: hopset: %w", err)
	}
	b.hs = hs
	return nil
}

// approxPivots computes d̂(·, A_j) for the high levels by
// hopset-accelerated Bellman-Ford (eq. (5): each iteration's B-bounded
// exploration delivers estimates to every host vertex).
func (b *builder) approxPivots() error {
	for j := b.kHalf + 1; j < b.k; j++ {
		var seeds []hopset.Source
		for _, v := range b.levels[j] {
			seeds = append(seeds, hopset.Source{Root: -1, At: v, Dist: 0})
		}
		res, err := hopset.BellmanFord(b.sim, b.vg, b.hs, seeds, hopset.BFOptions{Beta: b.o.Beta})
		if err != nil {
			return fmt.Errorf("core: approximate pivots for level %d: %w", j, err)
		}
		if res.Iterations > b.maxBeta {
			b.maxBeta = res.Iterations
		}
		b.pivotD[j] = res.Dist
		b.pivotRoot[j] = res.Origin
		for v := range res.Dist {
			if res.Dist[v] != graph.Infinity {
				b.sim.Mem(v).Charge(2) // retained approximate pivot
			}
		}
	}
	return nil
}
