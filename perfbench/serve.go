package main

import (
	"math"
	"runtime/debug"
	"time"

	"lowmemroute"
	"lowmemroute/internal/core"
	"lowmemroute/internal/dataplane"
	"lowmemroute/internal/dataplane/traffic"
	"lowmemroute/internal/graph"
)

// server is the forwarding surface a workload serves from: compiled
// single-hop lookups and interpretive full-path walks into a reused buffer.
type server interface {
	LookupBatch(src int, dst []dataplane.Label, out []dataplane.NextHop) int
	RouteAppend(src, dst int, path []int) ([]int, float64, error)
}

// facadeServer serves through the public API: DataPlane.LookupBatch and
// Scheme.RouteAppend.
type facadeServer struct {
	dp *lowmemroute.DataPlane
	s  *lowmemroute.Scheme
}

func (f facadeServer) LookupBatch(src int, dst []dataplane.Label, out []dataplane.NextHop) int {
	return f.dp.LookupBatch(src, dst, out)
}

func (f facadeServer) RouteAppend(src, dst int, path []int) ([]int, float64, error) {
	return f.s.RouteAppend(src, dst, path)
}

// internalServer serves a core.Build result: the compiled table and the
// cluster-routing scheme's own walk.
type internalServer struct {
	*dataplane.Table
	s *core.Scheme
}

func (i internalServer) RouteAppend(src, dst int, path []int) ([]int, float64, error) {
	return i.s.RouteAppend(src, dst, path)
}

// Traffic shape: one closed-loop client; each lookup call carries batchSize
// destinations drawn Zipf(zipfSkew) over a seeded popularity ranking, from
// a uniformly drawn source. Walks replay a fixed set of walkPairs pairs
// drawn the same way.
const (
	batchSize = 256
	zipfSkew  = 1.0
	batches   = 1024
	walkPairs = 2048
	// blockOps is how many lookup calls, or walks, the loop makes on one
	// instance before moving to the next: enough that the first calls after
	// a switch, which find the new instance's tables out of cache, stay
	// well under 1% of the samples behind a p99.
	blockOps = 256
	// maxLatencySamples bounds the latency buffers; past it they keep
	// every second sample, then every fourth, and so on.
	maxLatencySamples = 1 << 18
)

// trafficPlan is a run's generated load, fixed by the seed before timing.
type trafficPlan struct {
	srcs  []int
	dsts  []dataplane.Label // batches × batchSize
	pairs [][2]int
}

// newTrafficPlan draws the load the way traffic.Run does: uniform sources
// and Zipf-ranked destinations from one splitmix64 stream, where rank r is
// vertex r (vertex numbers of a random graph carry no structure).
func newTrafficPlan(n int, seed int64) trafficPlan {
	rng := traffic.NewStream(uint64(seed), 0)
	z := traffic.NewZipf(n, zipfSkew)
	t := trafficPlan{srcs: make([]int, batches), dsts: make([]dataplane.Label, batches*batchSize)}
	for b := range t.srcs {
		t.srcs[b] = int(rng.Next() % uint64(n))
		for j := 0; j < batchSize; j++ {
			t.dsts[b*batchSize+j] = dataplane.Label(z.Rank(rng.Next()))
		}
	}
	for len(t.pairs) < walkPairs {
		src, dst := int(rng.Next()%uint64(n)), z.Rank(rng.Next())
		if src != dst {
			t.pairs = append(t.pairs, [2]int{src, dst})
		}
	}
	return t
}

// latencies is a bounded, evenly thinned sample of per-operation times.
type latencies struct {
	xs     []float64
	stride int
	skip   int
	n      int64 // operations observed, sampled or not
}

// reset empties l for a new slice, keeping its buffer.
func (l *latencies) reset() { *l = latencies{xs: l.xs[:0], stride: 1} }

func (l *latencies) add(v float64) {
	l.n++
	if l.skip > 0 {
		l.skip--
		return
	}
	if len(l.xs) == maxLatencySamples {
		kept := l.xs[:0]
		for i := 0; i < len(l.xs); i += 2 {
			kept = append(kept, l.xs[i])
		}
		l.xs = kept
		l.stride *= 2
	}
	l.xs = append(l.xs, v)
	l.skip = l.stride - 1
}

// walkCheck validates one walk: a path over graph edges from src ending at
// dst, whose reported weight is its edge sum and at most (4k−3) times the
// exact distance. It returns the walk's stretch.
func walkCheck(ref *graph.Graph, k int, dist []float64, src, dst int, nodes []int, w float64) (float64, bool) {
	if len(nodes) == 0 || nodes[0] != src || nodes[len(nodes)-1] != dst {
		return 0, false
	}
	var sum float64
	for i := 1; i < len(nodes); i++ {
		ew, ok := ref.EdgeWeight(nodes[i-1], nodes[i])
		if !ok {
			return 0, false
		}
		sum += ew
	}
	d := dist[dst]
	if math.Abs(sum-w) > 1e-9*math.Max(1, sum) || d <= 0 {
		return 0, false
	}
	st := w / d
	return st, st <= float64(4*k-3)*(1+1e-12)
}

// serveSet is one built instance ready to serve: its forwarding surface,
// generated traffic, and the checker's reference graph and distances.
type serveSet struct {
	srv  server
	ref  *graph.Graph
	tr   trafficPlan
	dist map[int][]float64
}

// prepare generates an instance's traffic and walks every pair once,
// checking each walk. For the run's first instance it then records the
// exact counts (stretch_max over the pair set included) and checks them
// against the golden for the run's seed.
func (r *runner) prepare(srv server, c counts, ref *graph.Graph, seed int64, first bool) *serveSet {
	set := &serveSet{srv: srv, ref: ref, tr: newTrafficPlan(ref.N(), seed), dist: map[int][]float64{}}
	for _, p := range set.tr.pairs {
		if set.dist[p[0]] == nil {
			set.dist[p[0]] = ref.Dijkstra(p[0]).Dist
		}
	}
	var hops int64
	var buf []int
	for _, p := range set.tr.pairs {
		nodes, w, err := srv.RouteAppend(p[0], p[1], buf[:0])
		buf = nodes
		st, ok := walkCheck(ref, r.w.K, set.dist[p[0]], p[0], p[1], nodes, w)
		if r.checks.ok(err == nil && ok, "walk %d→%d: err=%v, invalid or over the stretch bound", p[0], p[1], err) {
			c.StretchMax = math.Max(c.StretchMax, st)
			hops += int64(len(nodes) - 1)
		}
	}
	if first {
		c.into(r.exact)
		r.checkGolden(c)
		r.exact["clusterroute.route_hops"] = float64(hops) / float64(len(set.tr.pairs))
	}
	return set
}

// load is the serving state that persists across a run's serving slices.
type load struct {
	out                          []dataplane.NextHop
	buf                          []int
	lookupLat, batchLat, walkLat latencies
	bi, pi                       int
	badLookups                   int64
	badWalks                     int64
}

// serve runs one slice of the closed loop, for d: LookupBatch calls for
// the first half, full walks for the second, each in blocks of blockOps
// calls on one instance before moving to the next. Each call is timed
// alone; its output is checked outside the timed span. Each serving metric
// gets one sample per slice, so the reported median over slices shrugs off
// a slice that another tenant of the host slowed down.
func (r *runner) serve(sets []*serveSet, d time.Duration) {
	ld := &r.load
	if ld.out == nil {
		ld.out = make([]dataplane.NextHop, batchSize)
		for _, l := range []*latencies{&ld.lookupLat, &ld.batchLat, &ld.walkLat} {
			l.xs = make([]float64, 0, maxLatencySamples)
		}
	}
	lookupLat, batchLat, walkLat := &ld.lookupLat, &ld.batchLat, &ld.walkLat
	for _, l := range []*latencies{lookupLat, batchLat, walkLat} {
		l.reset()
	}
	var lookupNs, lookups, walkNs, walks, walkHops int64
	// Collect the set-up's garbage and return it to the OS now, not
	// inside the timed loop.
	debug.FreeOSMemory()
	start := time.Now()
	for round := 0; round == 0 || time.Since(start) < d/2; round++ {
		set := sets[round%len(sets)]
		tr, ref := &set.tr, set.ref
		for i := 0; i < blockOps; i++ {
			src, dst := tr.srcs[ld.bi], tr.dsts[ld.bi*batchSize:(ld.bi+1)*batchSize]
			ld.bi = (ld.bi + 1) % batches
			t := time.Now()
			got := set.srv.LookupBatch(src, dst, ld.out)
			ns := time.Since(t).Nanoseconds()
			lookupNs += ns
			lookups += int64(got)
			batchLat.add(float64(ns))
			lookupLat.add(float64(ns) / batchSize)
			for j, h := range ld.out[:got] {
				if h.Arrived != (int(dst[j]) == src) || !h.Arrived && (h.Next < 0 || !ref.HasEdge(src, int(h.Next))) {
					ld.badLookups++
				}
			}
			ld.badLookups += int64(batchSize - got)
		}
	}
	for round := 0; round == 0 || time.Since(start) < d; round++ {
		set := sets[round%len(sets)]
		tr, ref := &set.tr, set.ref
		for i := 0; i < blockOps; i++ {
			p := tr.pairs[ld.pi]
			ld.pi = (ld.pi + 1) % len(tr.pairs)
			t := time.Now()
			nodes, w, err := set.srv.RouteAppend(p[0], p[1], ld.buf[:0])
			ns := time.Since(t).Nanoseconds()
			ld.buf = nodes
			walkNs += ns
			walks++
			walkHops += int64(len(nodes) - 1)
			walkLat.add(float64(ns))
			if _, ok := walkCheck(ref, r.w.K, set.dist[p[0]], p[0], p[1], nodes, w); err != nil || !ok {
				ld.badWalks++
			}
		}
	}
	r.checks.attempted += lookupLat.n*batchSize + walks
	for _, m := range []struct {
		name string
		v    float64
		n    int64
	}{
		{"lookups_per_s", ratio(float64(lookups), secs(lookupNs)), lookupLat.n},
		{"lookup_p50_ns", quantile(lookupLat.xs, 0.5), lookupLat.n},
		{"lookup_p99_ns", quantile(lookupLat.xs, 0.99), lookupLat.n},
		{"dataplane.batch_ns", quantile(batchLat.xs, 0.5), batchLat.n},
		{"routes_per_s", ratio(float64(walks), secs(walkNs)), walks},
		{"route_p99_ns", quantile(walkLat.xs, 0.99), walks},
		{"clusterroute.ns_per_hop", ratio(float64(walkNs), float64(walkHops)), walks},
	} {
		r.add(m.name, m.v)
		r.opsBehind[m.name] += m.n
	}
}

// finishServe records the run's failed lookups and walks.
func (r *runner) finishServe() {
	ld := &r.load
	if ld.badLookups > 0 {
		r.checks.fail(ld.badLookups, "%d lookups reported no route or a non-neighbour next hop", ld.badLookups)
	}
	if ld.badWalks > 0 {
		r.checks.fail(ld.badWalks, "%d walks were invalid or broke the stretch bound", ld.badWalks)
	}
}
