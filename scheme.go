package lowmemroute

import (
	"fmt"
	"time"

	"lowmemroute/internal/congest"
	"lowmemroute/internal/core"
	"lowmemroute/internal/graph"
	"lowmemroute/internal/metrics"
	"lowmemroute/internal/obs"
	"lowmemroute/internal/router"
	"lowmemroute/internal/treeroute"
	"lowmemroute/internal/wire"
)

// Config configures Build.
type Config struct {
	// K is the stretch parameter: stretch is at most 4K-3+o(1), tables
	// shrink as Õ(n^{1/K}). K=1 gives exact shortest-path routing with
	// linear tables. Must be >= 1.
	K int
	// Epsilon is the approximation slack of the construction's high
	// levels (default 0.05; the o(1) stretch term grows with it).
	Epsilon float64
	// Seed drives all randomness; equal seeds give identical schemes.
	Seed int64
	// Trace, when non-nil, records per-phase spans and a per-round time
	// series during the build (see NewTracer). Tracing is observational:
	// the scheme and Report are identical with or without it.
	Trace *Tracer
	// Faults, when non-nil, injects the given deterministic fault schedule
	// into the simulated network: the construction then runs over lossy,
	// slow, duplicating, crashing links, and the Report's cost counters and
	// Faults field measure what that robustness cost. Nil (or a zero plan)
	// is exactly the clean run.
	Faults *FaultPlan
	// Metrics, when non-nil, exports live engine counters and build-phase
	// progress while the construction runs, and makes the returned Scheme
	// record per-lookup wall latency (see NewMetrics). Like Trace it is
	// observational: the scheme and Report are identical with or without
	// it.
	Metrics *Metrics
}

// Report summarises the distributed construction's cost in the CONGEST
// model: synchronous rounds, messages, and per-node memory high-water marks.
type Report struct {
	Rounds      int64
	Messages    int64
	Words       int64
	PeakMemory  int64   // max words held by any node at any time
	AvgMemory   float64 // mean per-node peak
	HopDiameter int     // the D used for broadcast accounting

	// Scheme-level quantities (Theorem 3's parameters, measured).
	MaxTableWords      int
	MaxLabelWords      int
	MaxClustersPerNode int
	HopsetEdges        int
	HopsetArboricity   int
	BetaRealised       int

	// PhaseRounds breaks Rounds down by construction phase.
	PhaseRounds map[string]int64

	// Faults aggregates what the configured fault plan did to the build;
	// zero when Config.Faults was nil.
	Faults FaultReport
}

// Path is a routed walk through the network.
type Path struct {
	Nodes  []int
	Weight float64
	// Degraded marks a packet-network delivery that was rerouted around at
	// least one crashed node: the walk is still valid, but its stretch may
	// exceed the clean 4K-3 bound. Always false for Scheme.Route paths.
	Degraded bool
}

// Hops returns the number of links crossed.
func (p Path) Hops() int { return len(p.Nodes) - 1 }

// Scheme is a compact routing scheme for a general network, built by the
// paper's low-memory distributed construction.
type Scheme struct {
	inner  *core.Scheme
	report Report
	// lookups, when non-nil (Config.Metrics was set), receives each
	// Route call's wall latency in nanoseconds.
	lookups *obs.Histogram
}

// Build runs the full distributed construction of Theorem 3 on a simulated
// CONGEST network and returns the routing scheme plus its cost report.
func Build(net *Network, cfg Config) (*Scheme, error) {
	if net == nil {
		return nil, fmt.Errorf("lowmemroute: nil network")
	}
	if cfg.K < 1 {
		return nil, fmt.Errorf("lowmemroute: K=%d < 1", cfg.K)
	}
	if net.Nodes() > 1 && !net.Connected() {
		return nil, fmt.Errorf("lowmemroute: network is not connected")
	}
	simOpts := []congest.Option{congest.WithSeed(cfg.Seed)}
	if rec := cfg.Trace.recorder(); rec != nil {
		simOpts = append(simOpts, congest.WithTrace(rec))
	}
	if cfg.Faults != nil {
		simOpts = append(simOpts, congest.WithFaults(cfg.Faults.internal()))
	}
	if reg := cfg.Metrics.Registry(); reg != nil {
		simOpts = append(simOpts, congest.WithMetrics(reg))
	}
	sim := congest.New(net.g, simOpts...)
	cfg.Trace.recorder().Attach(sim)
	s, err := core.Build(sim, core.Options{
		K:       cfg.K,
		Epsilon: cfg.Epsilon,
		Seed:    cfg.Seed,
		Trace:   cfg.Trace.recorder(),
		Metrics: cfg.Metrics.Registry(),
	})
	if err != nil {
		return nil, err
	}
	var lookups *obs.Histogram
	if reg := cfg.Metrics.Registry(); reg != nil {
		reg.SetHelp(metrics.LookupHistogram, "Wall-clock latency of one Route lookup, in seconds.")
		lookups = reg.Histogram(metrics.LookupHistogram, 1e-9)
	}
	sch := &Scheme{
		inner:   s,
		lookups: lookups,
		report: Report{
			Rounds:             sim.Rounds(),
			Messages:           sim.Messages(),
			Words:              sim.Words(),
			PeakMemory:         sim.PeakMemory(),
			AvgMemory:          sim.AvgPeakMemory(),
			HopDiameter:        sim.Diameter(),
			MaxTableWords:      s.MaxTableWords(),
			MaxLabelWords:      s.MaxLabelWords(),
			MaxClustersPerNode: s.MaxClustersPerVertex(),
			HopsetEdges:        s.Stats.HopsetEdges,
			HopsetArboricity:   s.Stats.HopsetArbor,
			BetaRealised:       s.Stats.BetaRealised,
			PhaseRounds:        s.Stats.PhaseRounds,
			Faults:             publicFaultReport(sim.FaultCounters()),
		},
	}
	return sch, nil
}

// Route forwards a message from src to dst using only src's table, dst's
// label, and the tables of intermediate nodes - exactly the routing phase
// of the scheme, walked on the flat table Build compiled (the one Compile
// and Serve use too). A src or dst outside [0, Nodes()) is an error.
func (s *Scheme) Route(src, dst int) (Path, error) {
	var began time.Time
	if s.lookups != nil {
		began = time.Now()
	}
	nodes, w, err := s.inner.Route(src, dst)
	if s.lookups != nil {
		s.lookups.Record(int64(time.Since(began)))
	}
	if err != nil {
		return Path{}, err
	}
	return Path{Nodes: nodes, Weight: w}, nil
}

// RouteAppend is Route with a caller-provided node buffer: the walked path
// is appended to nodes (reuse the buffer across queries to avoid the
// per-query path allocation). The returned slice is the grown buffer — it
// is NOT wrapped in a Path, so measurement loops can recycle it directly.
func (s *Scheme) RouteAppend(src, dst int, nodes []int) ([]int, float64, error) {
	var began time.Time
	if s.lookups != nil {
		began = time.Now()
	}
	nodes, w, err := s.inner.RouteAppend(src, dst, nodes)
	if s.lookups != nil {
		s.lookups.Record(int64(time.Since(began)))
	}
	return nodes, w, err
}

// Report returns the construction cost report.
func (s *Scheme) Report() Report { return s.report }

// TableWords returns node v's routing table size in words.
func (s *Scheme) TableWords(v int) int { return s.inner.Tables[v].Words() }

// LabelWords returns node v's routing label size in words.
func (s *Scheme) LabelWords(v int) int { return s.inner.Labels[v].Words() }

// EncodedLabel returns node v's routing label in its compact varint wire
// encoding - the bytes a packet would carry as its destination address.
func (s *Scheme) EncodedLabel(v int) []byte { return wire.EncodeLabel(s.inner.Labels[v]) }

// EncodedTable returns node v's routing table in its compact varint wire
// encoding - the bytes the node persists as routing state.
func (s *Scheme) EncodedTable(v int) []byte { return wire.EncodeTable(s.inner.Tables[v]) }

// PacketNetwork is a live packet-forwarding overlay running the scheme:
// one goroutine per node, channels as links, packets addressed by labels.
type PacketNetwork struct {
	inner *router.Network
}

// Serve starts the scheme as a concurrent packet-forwarding network. Call
// Close when done; Send blocks until delivery and is safe for concurrent
// use. A scheme built with Config.Metrics records each delivery's
// end-to-end wall latency into the lookup-latency histogram.
func (s *Scheme) Serve() *PacketNetwork {
	net := router.New(s.inner.Compiled())
	net.ObserveLatency(s.lookups)
	return &PacketNetwork{inner: net}
}

// Send injects a packet at src addressed to dst and returns its delivery
// path. Under node crashes the path may be Degraded (rerouted around the
// failures) rather than an error; see PacketNetwork.Crash.
func (p *PacketNetwork) Send(src, dst int) (Path, error) {
	d, err := p.inner.Send(src, dst)
	if err != nil {
		return Path{}, err
	}
	return Path{Nodes: d.Path, Degraded: d.Degraded}, nil
}

// Close stops all forwarding goroutines and waits for them.
func (p *PacketNetwork) Close() { p.inner.Close() }

// TreeConfig configures BuildTree.
type TreeConfig struct {
	// Seed drives portal sampling.
	Seed int64
	// Trace, when non-nil, records per-phase spans and a per-round time
	// series during the build (see NewTracer).
	Trace *Tracer
	// Faults, when non-nil, injects a deterministic fault schedule into the
	// simulated network (see Config.Faults).
	Faults *FaultPlan
	// Metrics, when non-nil, exports live engine counters while the
	// construction runs (see NewMetrics).
	Metrics *Metrics
}

// TreeReport summarises a tree-routing construction.
type TreeReport struct {
	Rounds        int64
	Messages      int64
	PeakMemory    int64
	AvgMemory     float64
	Portals       int
	MaxTableWords int
	MaxLabelWords int
	// Faults aggregates what the configured fault plan did to the build.
	Faults FaultReport
}

// TreeScheme is an exact compact routing scheme for a tree embedded in a
// network (Theorem 2: O(1)-word tables, O(log n)-word labels, O(log n)
// construction memory, Õ(√n + D) rounds).
type TreeScheme struct {
	inner  *treeroute.Scheme
	tree   *Tree
	report TreeReport
}

// BuildTree runs the paper's distributed tree-routing construction for one
// tree embedded in the network.
func BuildTree(net *Network, tree *Tree, cfg TreeConfig) (*TreeScheme, error) {
	if net == nil || tree == nil {
		return nil, fmt.Errorf("lowmemroute: nil network or tree")
	}
	simOpts := []congest.Option{congest.WithSeed(cfg.Seed)}
	if rec := cfg.Trace.recorder(); rec != nil {
		simOpts = append(simOpts, congest.WithTrace(rec))
	}
	if cfg.Faults != nil {
		simOpts = append(simOpts, congest.WithFaults(cfg.Faults.internal()))
	}
	if reg := cfg.Metrics.Registry(); reg != nil {
		simOpts = append(simOpts, congest.WithMetrics(reg))
	}
	sim := congest.New(net.g, simOpts...)
	cfg.Trace.recorder().Attach(sim)
	res, err := treeroute.BuildDistributed(sim, []*graph.Tree{tree.t},
		treeroute.DistOptions{Seed: cfg.Seed, Trace: cfg.Trace.recorder()})
	if err != nil {
		return nil, err
	}
	return &TreeScheme{
		inner: res.Schemes[0],
		tree:  tree,
		report: TreeReport{
			Rounds:        sim.Rounds(),
			Messages:      sim.Messages(),
			PeakMemory:    sim.PeakMemory(),
			AvgMemory:     sim.AvgPeakMemory(),
			Portals:       res.Portals[0],
			MaxTableWords: res.Schemes[0].MaxTableWords(),
			MaxLabelWords: res.Schemes[0].MaxLabelWords(),
			Faults:        publicFaultReport(sim.FaultCounters()),
		},
	}, nil
}

// BuildTrees runs the distributed tree-routing construction for several
// trees of the same network in parallel (the second assertion of Theorem 2):
// with s overlapping trees, the parallel build costs Õ(√(sn) + D) rounds -
// a √s factor below building them one at a time - using O(s log n) words
// per node. The returned schemes are index-aligned with trees; the report
// covers the whole parallel construction.
func BuildTrees(net *Network, trees []*Tree, cfg TreeConfig) ([]*TreeScheme, TreeReport, error) {
	if net == nil {
		return nil, TreeReport{}, fmt.Errorf("lowmemroute: nil network")
	}
	if len(trees) == 0 {
		return nil, TreeReport{}, nil
	}
	inner := make([]*graph.Tree, len(trees))
	for i, t := range trees {
		if t == nil {
			return nil, TreeReport{}, fmt.Errorf("lowmemroute: nil tree at index %d", i)
		}
		inner[i] = t.t
	}
	simOpts := []congest.Option{congest.WithSeed(cfg.Seed)}
	if rec := cfg.Trace.recorder(); rec != nil {
		simOpts = append(simOpts, congest.WithTrace(rec))
	}
	if cfg.Faults != nil {
		simOpts = append(simOpts, congest.WithFaults(cfg.Faults.internal()))
	}
	if reg := cfg.Metrics.Registry(); reg != nil {
		simOpts = append(simOpts, congest.WithMetrics(reg))
	}
	sim := congest.New(net.g, simOpts...)
	cfg.Trace.recorder().Attach(sim)
	res, err := treeroute.BuildDistributed(sim, inner,
		treeroute.DistOptions{Seed: cfg.Seed, Trace: cfg.Trace.recorder()})
	if err != nil {
		return nil, TreeReport{}, err
	}
	rep := TreeReport{
		Rounds:     sim.Rounds(),
		Messages:   sim.Messages(),
		PeakMemory: sim.PeakMemory(),
		AvgMemory:  sim.AvgPeakMemory(),
		Faults:     publicFaultReport(sim.FaultCounters()),
	}
	out := make([]*TreeScheme, len(trees))
	for i := range trees {
		rep.Portals += res.Portals[i]
		if w := res.Schemes[i].MaxTableWords(); w > rep.MaxTableWords {
			rep.MaxTableWords = w
		}
		if w := res.Schemes[i].MaxLabelWords(); w > rep.MaxLabelWords {
			rep.MaxLabelWords = w
		}
		out[i] = &TreeScheme{inner: res.Schemes[i], tree: trees[i], report: rep}
	}
	for i := range out {
		out[i].report = rep
	}
	return out, rep, nil
}

// Route forwards a message from src to dst along the unique tree path.
func (t *TreeScheme) Route(src, dst int) (Path, error) {
	nodes, err := t.inner.Route(src, dst)
	if err != nil {
		return Path{}, err
	}
	return Path{Nodes: nodes, Weight: float64(len(nodes) - 1)}, nil
}

// RouteAppend is Route with a caller-provided node buffer: the tree path is
// appended to nodes so repeated queries allocate only on buffer growth.
func (t *TreeScheme) RouteAppend(src, dst int, nodes []int) ([]int, error) {
	return t.inner.RouteAppend(src, dst, nodes)
}

// Report returns the construction cost report.
func (t *TreeScheme) Report() TreeReport { return t.report }
