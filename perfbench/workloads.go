package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"lowmemroute"
	"lowmemroute/internal/congest"
	"lowmemroute/internal/core"
	"lowmemroute/internal/dataplane"
	"lowmemroute/internal/dataplane/traffic"
	"lowmemroute/internal/graph"
	"lowmemroute/internal/trace"
	"lowmemroute/internal/wire"
)

// workload is one input family driven through the pipeline
// generate → boot → core.Build → Compile → serve.
type workload struct {
	Name   string
	Family graph.Family
	N, K   int
	// Shards is pinned (congest.WithShards) so allocation and dispatch
	// numbers do not depend on the host's core count. The facade path
	// cannot set it; there it is the simulator default, GOMAXPROCS, which
	// main pins to 2, so serve-zipf's set-up builds are the sharded ones.
	Shards int
	// Ckpt adds one checkpoint round per run, outside build_s: the first
	// instance is built again with a checkpoint at every tree-routing
	// phase, then a fresh simulator resumes from the last one.
	Ckpt bool
	// Facade sets up through the library's public API (Generate, Build,
	// Compile) on the Graph-backed simulator; otherwise the workload
	// generates straight into CSR and boots congest.NewTopo.
	Facade bool
	// Nominal is the expected time of one instance's build on a 2-core
	// host. A build workload measures about --seconds / Nominal instances;
	// the count depends on --seconds alone, so a seed fixes the inputs
	// exactly.
	Nominal time.Duration
}

// gomaxprocs is the pinned GOMAXPROCS of every run: load comes from one
// process with at most this many threads.
const gomaxprocs = 2

var workloads = []workload{
	{Name: "build-er", Family: graph.FamilyErdosRenyi, N: 384, K: 2, Shards: 1, Ckpt: true, Nominal: 3500 * time.Millisecond},
	{Name: "serve-zipf", Family: graph.FamilyErdosRenyi, N: 192, K: 2, Shards: gomaxprocs, Facade: true},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Run shape.
const (
	// setupReps is how many times a build workload generates and boots
	// each instance; setup_s is the median (these take milliseconds).
	setupReps = 3
	// serve-zipf sets up (generate, facade Build, Compile) one instance
	// per facadeEvery of the budget, at least minFacadeInstances per run.
	facadeEvery        = 3 * time.Second
	minFacadeInstances = 5
	// compileReps is how many times a run compiles the data plane for the
	// dataplane.compile_s median.
	compileReps = 5
	// buildServe is the closed-loop serving time of a build workload (a
	// seventh of the budget when that is shorter), one slice per instance.
	// serve-zipf serves in serveSlices slices.
	buildServe  = 4 * time.Second
	serveSlices = 8
	// minSlice keeps a serving slice long enough for its p99s when set-up
	// has used up the budget.
	minSlice = 100 * time.Millisecond
)

// instanceSeed derives the seed of a run's i-th instance: the run's own
// seed first, then the first draw of the run's i-th splitmix64 stream, so
// runs with nearby seeds share no inputs.
func instanceSeed(seed int64, i int) int64 {
	if i == 0 {
		return seed
	}
	return int64(traffic.NewStream(uint64(seed), i).Next() >> 1)
}

// runner executes one workload for a time budget and collects its samples
// and correctness verdicts.
type runner struct {
	w       workload
	seed    int64
	budget  time.Duration
	traced  bool
	workdir string
	goldens goldenTable

	start   time.Time
	samples map[string][]float64
	exact   metricSet // exact counts of the first instance (the run's seed)
	checks  ledger
	load    load
	// opsBehind counts the timed operations behind each serving metric
	// (calls for lookups, walks for routes), summed over slices.
	opsBehind map[string]int64
}

func newRunner(w workload, seed int64, budget time.Duration, traced bool, workdir string, gold goldenTable) *runner {
	return &runner{
		w: w, seed: seed, budget: budget, traced: traced, workdir: workdir, goldens: gold,
		samples:   map[string][]float64{},
		exact:     metricSet{},
		opsBehind: map[string]int64{},
	}
}

func (r *runner) add(name string, v float64) { r.samples[name] = append(r.samples[name], v) }

// setExact records an exact count unless an earlier instance — the first,
// the run's own seed — already did.
func (r *runner) setExact(name string, v float64) {
	if _, ok := r.exact[name]; !ok {
		r.exact[name] = v
	}
}

// metrics reduces the samples to one value per metric: the median of a
// timing's samples, the exact value of a count.
func (r *runner) metrics() metricSet {
	m := metricSet{}
	for name, xs := range r.samples {
		m[name] = median(xs)
	}
	for name, v := range r.exact {
		m[name] = v
	}
	return m
}

// sampleInfo describes the samples behind one reported median: how many,
// their range, and for serving metrics the timed operations behind them.
type sampleInfo struct {
	N   int     `json:"n"`
	Min float64 `json:"min"`
	Max float64 `json:"max"`
	Ops int64   `json:"ops,omitempty"`
}

// sampleInfos describes the samples behind every median the run reports.
func (r *runner) sampleInfos() map[string]sampleInfo {
	out := map[string]sampleInfo{}
	for name, xs := range r.samples {
		info := sampleInfo{N: len(xs), Min: xs[0], Max: xs[0], Ops: r.opsBehind[name]}
		for _, x := range xs {
			info.Min, info.Max = min(info.Min, x), max(info.Max, x)
		}
		out[name] = info
	}
	return out
}

// instances is how many instances the run builds: under --trace 1 each is
// built twice, untraced and traced. The checkpoint round costs about one
// more build.
func (r *runner) instances() int {
	if r.w.Facade {
		return max(minFacadeInstances, int(r.budget/facadeEvery))
	}
	left := r.budget - r.serveTime()
	if r.w.Ckpt {
		left -= r.w.Nominal
	}
	d := r.w.Nominal
	if r.traced {
		d *= 2
	}
	return max(1, int(left/d))
}

// overrun reports whether the run has used a quarter again its budget. A
// host that slow stops starting new instances, so a run still ends near
// its budget; inputs then are a prefix of the seed's instance sequence.
func (r *runner) overrun() bool { return time.Since(r.start) > r.budget*5/4 }

func (r *runner) serveTime() time.Duration { return min(buildServe, r.budget/7) }

// run executes the workload.
func (r *runner) run() error {
	r.start = time.Now()
	if r.w.Facade {
		return r.runFacade()
	}
	return r.runCSR()
}

// ---- CSR path: build-er ---------------------------------------------------

// runCSR builds each instance (generated straight into CSR, booted with
// congest.NewTopo) once untraced and, under --trace 1, once traced, then
// compiles it and serves it for one slice. An instance is dropped before
// the next is built, so peak RSS is one build's, whatever the budget.
func (r *runner) runCSR() error {
	n := r.instances()
	for i := 0; i < n && !r.overrun(); i++ {
		seed := instanceSeed(r.seed, i)
		var csr *graph.CSR
		for j := 0; j < setupReps; j++ {
			t := time.Now()
			var err error
			if csr, err = r.generateCSR(seed); err != nil {
				return err
			}
			r.bootTopo(csr, seed)
			r.add("setup_s", secs(time.Since(t).Nanoseconds()))
		}
		s, c, wall, err := r.buildCSR(csr, seed, false)
		if err != nil {
			return err
		}
		if r.w.Ckpt && i == 0 {
			if err := r.checkpointRound(csr, seed, c, s); err != nil {
				return err
			}
		}
		if r.traced {
			_, tc, twall, err := r.buildCSR(csr, seed, true)
			if err != nil {
				return err
			}
			r.checks.ok(tc == c, "traced build counts %+v differ from untraced %+v", tc, c)
			r.add("trace.overhead_frac", twall/wall-1)
		}
		if i == 0 {
			r.exact["graph.csr_bytes"] = float64(csr.MemoryBytes())
		}
		tab := r.compile(s, i == 0)
		set := r.prepare(internalServer{tab, s}, c, csr.ToGraph(), seed, i == 0)
		r.serve([]*serveSet{set}, r.serveTime()/time.Duration(n))
	}
	r.finishServe()
	return nil
}

func (r *runner) generateCSR(seed int64) (*graph.CSR, error) {
	t := time.Now()
	csr, err := graph.GenerateCSR(r.w.Family, r.w.N, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, fmt.Errorf("generate %s n=%d: %w", r.w.Family, r.w.N, err)
	}
	r.add("graph.generate_s", secs(time.Since(t).Nanoseconds()))
	return csr, nil
}

func (r *runner) bootTopo(csr *graph.CSR, seed int64, opts ...congest.Option) *congest.Simulator {
	t := time.Now()
	sim := congest.NewTopo(csr, append([]congest.Option{congest.WithSeed(seed), congest.WithShards(r.w.Shards)}, opts...)...)
	r.add("congest.boot_s", secs(time.Since(t).Nanoseconds()))
	return sim
}

// buildCSR boots a simulator on csr and runs core.Build on it, untraced or
// traced, returning the scheme, its exact counts and the build's wall
// seconds.
func (r *runner) buildCSR(csr *graph.CSR, seed int64, traced bool) (*core.Scheme, counts, float64, error) {
	sim := r.bootTopo(csr, seed)
	opts := core.Options{K: r.w.K, Seed: seed}
	var rec *trace.Recorder
	if traced {
		rec = trace.NewRecorder()
		rec.Attach(sim)
		opts.Trace = rec
	}
	s, wall, err := r.timedBuild(sim, opts, traced)
	if !r.checks.ok(err == nil, "build: %v", err) {
		return nil, counts{}, 0, fmt.Errorf("build: %w", err)
	}
	c := countsOf(sim, s.Scheme)
	if traced {
		r.attribute(rec.Export(), wall)
	} else {
		r.add("build_s", wall)
	}
	return s, c, wall, nil
}

// markClock times the checkpoint writes a build makes at its tree-routing
// unit boundaries. As the simulator's trace sink it timestamps every round
// sample; the checkpointer's mark hook, which runs after each write, adds
// the time since the unit's last round.
type markClock struct {
	last  time.Time
	total time.Duration
}

func (m *markClock) RoundSample(trace.RoundSample) { m.last = time.Now() }

func (m *markClock) mark(string, int64) { m.total += time.Since(m.last) }

// timedBuild runs core.Build, returning its wall time in seconds. When
// untraced it also records the engine's host costs per unit of simulated
// work: ns per message, µs per round, allocations per thousand messages
// and GC cycles (runtime.MemStats deltas around the call).
func (r *runner) timedBuild(sim *congest.Simulator, opts core.Options, traced bool) (*core.Scheme, float64, error) {
	runtime.GC() // start every build from the same clean heap
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t := time.Now()
	s, err := core.Build(sim, opts)
	wall := time.Since(t)
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, 0, err
	}
	if !traced {
		ns, msgs := float64(wall.Nanoseconds()), float64(sim.Messages())
		r.add("congest.ns_per_msg", ratio(ns, msgs))
		r.add("congest.us_per_round", ratio(ns/1e3, float64(sim.Rounds())))
		r.add("congest.allocs_per_kmsg", ratio(float64(after.Mallocs-before.Mallocs), msgs/1e3))
		r.add("congest.gc_cycles", float64(after.NumGC-before.NumGC))
	}
	return s, secs(wall.Nanoseconds()), nil
}

// ckptPath is where the checkpoint round writes.
func (r *runner) ckptPath() string { return filepath.Join(r.workdir, r.w.Name+".ckpt") }

// stampCkpt records the build's identity in the checkpoint, so a resume
// under any other configuration fails loudly.
func (r *runner) stampCkpt(ck *congest.Checkpointer, seed int64) error {
	for _, kv := range [][2]string{
		{"mode", "perfbench"},
		{"family", string(r.w.Family)},
		{"n", strconv.Itoa(r.w.N)},
		{"k", strconv.Itoa(r.w.K)},
		{"seed", strconv.FormatInt(seed, 10)},
	} {
		if err := ck.SetMeta(kv[0], kv[1]); err != nil {
			return fmt.Errorf("checkpoint meta: %w", err)
		}
	}
	return nil
}

// checkpointRound exercises the checkpoint layer once per run, outside
// build_s. It builds the instance again with a checkpoint at every
// tree-routing phase, timing the writes, then restarts from the last
// checkpoint — boot a fresh simulator, replay the cheap pre-tree phases,
// restore the rest — and checks both results are identical to the plain
// build. It also times reading that checkpoint and rewriting it to another
// path.
func (r *runner) checkpointRound(csr *graph.CSR, seed int64, want counts, wantS *core.Scheme) error {
	path := r.ckptPath()
	clock := &markClock{}
	sim := congest.NewTopo(csr, congest.WithSeed(seed), congest.WithShards(r.w.Shards), congest.WithTrace(clock))
	ck := congest.NewCheckpointer(path, 0)
	if err := r.stampCkpt(ck, seed); err != nil {
		return err
	}
	ck.SetOnMark(clock.mark)
	runtime.GC()
	s, err := core.Build(sim, core.Options{K: r.w.K, Seed: seed, Ckpt: ck})
	if err == nil {
		err = ck.Err()
	}
	if !r.checks.ok(err == nil, "checkpointed build: %v", err) {
		return nil
	}
	r.add("trace.ckpt_marks_s", secs(clock.total.Nanoseconds()))
	r.checks.ok(countsOf(sim, s.Scheme) == want && sameScheme(s, wantS),
		"checkpointed build differs from the plain build")

	runtime.GC()
	t := time.Now()
	ck, err = congest.ResumeCheckpointer(path, 0)
	if err == nil {
		err = r.stampCkpt(ck, seed)
	}
	var got *core.Scheme
	if err == nil {
		sim = congest.NewTopo(csr, congest.WithSeed(seed), congest.WithShards(r.w.Shards))
		got, err = core.Build(sim, core.Options{K: r.w.K, Seed: seed, Ckpt: ck})
	}
	if err == nil {
		err = ck.Err()
	}
	wall := time.Since(t)
	if !r.checks.ok(err == nil, "resume: %v", err) {
		return nil
	}
	r.add("resume_s", secs(wall.Nanoseconds()))
	r.checks.ok(countsOf(sim, got.Scheme) == want && sameScheme(got, wantS),
		"resume: resumed scheme differs from the uninterrupted build")

	fi, err := os.Stat(path)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	r.add("trace.ckpt_bytes", float64(fi.Size()))
	t = time.Now()
	c, err := trace.ReadCheckpointFile(path)
	if err != nil {
		return fmt.Errorf("checkpoint read: %w", err)
	}
	r.add("trace.ckpt_read_s", secs(time.Since(t).Nanoseconds()))
	t = time.Now()
	if err := trace.WriteCheckpointFile(path+".copy", c); err != nil {
		return fmt.Errorf("checkpoint write: %w", err)
	}
	r.add("trace.ckpt_write_s", secs(time.Since(t).Nanoseconds()))
	return nil
}

// sameScheme compares two schemes by the wire encoding of every table and
// label.
func sameScheme(a, b *core.Scheme) bool {
	if len(a.Tables) != len(b.Tables) {
		return false
	}
	for v := range a.Tables {
		if !bytes.Equal(wire.EncodeTable(a.Tables[v]), wire.EncodeTable(b.Tables[v])) ||
			!bytes.Equal(wire.EncodeLabel(a.Labels[v]), wire.EncodeLabel(b.Labels[v])) {
			return false
		}
	}
	return true
}

// compile compiles the built scheme into the data plane, compileReps
// times, and records the first instance's member count.
func (r *runner) compile(s *core.Scheme, first bool) *dataplane.Table {
	var tab *dataplane.Table
	for i := 0; i < compileReps; i++ {
		t := time.Now()
		tab = dataplane.Compile(s.Scheme)
		r.add("dataplane.compile_s", secs(time.Since(t).Nanoseconds()))
	}
	if first {
		r.exact["dataplane.members"] = float64(tab.MemberCount())
	}
	return tab
}

// ---- facade path: serve-zipf ---------------------------------------------

// runFacade sets up instances through the public API, then serves all of
// them in turn for the rest of the budget. Under --trace 1 each instance's
// build is also attributed to layers.
func (r *runner) runFacade() error {
	var sets []*serveSet
	n := r.instances()
	for i := 0; i < n && !r.overrun(); i++ {
		seed := instanceSeed(r.seed, i)
		runtime.GC()
		t := time.Now()
		net, err := lowmemroute.Generate(r.w.Family, r.w.N, seed)
		if err != nil {
			return fmt.Errorf("generate: %w", err)
		}
		tb := time.Now()
		r.add("graph.generate_s", secs(tb.Sub(t).Nanoseconds()))
		s, err := lowmemroute.Build(net, lowmemroute.Config{K: r.w.K, Seed: seed})
		if !r.checks.ok(err == nil, "build: %v", err) {
			return fmt.Errorf("build: %w", err)
		}
		r.add("build_s", secs(time.Since(tb).Nanoseconds()))
		dp, err := lowmemroute.Compile(s)
		if err != nil {
			return fmt.Errorf("compile: %w", err)
		}
		r.add("setup_s", secs(time.Since(t).Nanoseconds()))
		rep := s.Report()
		c := counts{
			Rounds: rep.Rounds, Messages: rep.Messages, Words: rep.Words, PeakMem: rep.PeakMemory,
			MaxTableWords: rep.MaxTableWords, MaxLabelWords: rep.MaxLabelWords,
		}
		// The checker's reference graph: the facade's Generate is
		// graph.Generate with the same seed.
		ref, err := graph.Generate(r.w.Family, r.w.N, rand.New(rand.NewSource(seed)))
		if err != nil || ref.M() != net.Links() {
			return fmt.Errorf("reference graph differs from the facade's: %v", err)
		}
		if r.traced {
			if err := r.layersFacade(ref, seed, c, i == 0); err != nil {
				return err
			}
		}
		sets = append(sets, r.prepare(facadeServer{dp, s}, c, ref, seed, i == 0))
	}
	slice := time.Until(r.start.Add(r.budget)) / serveSlices
	for i := 0; i < serveSlices; i++ {
		r.serve(sets, max(slice, minSlice))
	}
	r.finishServe()
	return nil
}

// layersFacade attributes one serve-zipf instance's build to layers. The
// facade hides its simulator, so this makes the calls facade Build makes —
// congest.New on the generated graph, then core.Build — itself, untraced
// and traced, timing each, and checks both reproduce the facade's counts.
func (r *runner) layersFacade(g *graph.Graph, seed int64, want counts, first bool) error {
	var wall [2]float64
	for pass := range wall {
		t := time.Now()
		sim := congest.New(g, congest.WithSeed(seed))
		r.add("congest.boot_s", secs(time.Since(t).Nanoseconds()))
		opts := core.Options{K: r.w.K, Seed: seed}
		var rec *trace.Recorder
		if pass == 1 {
			rec = trace.NewRecorder()
			rec.Attach(sim)
			opts.Trace = rec
		}
		s, w, err := r.timedBuild(sim, opts, pass == 1)
		if !r.checks.ok(err == nil, "build: %v", err) {
			return fmt.Errorf("build: %w", err)
		}
		if pass == 1 {
			r.attribute(rec.Export(), w)
		}
		c := countsOf(sim, s.Scheme)
		r.checks.ok(c == want, "direct build counts %+v differ from the facade's %+v", c, want)
		wall[pass] = w
		if pass == 0 {
			r.compile(s, first)
		}
	}
	if first {
		r.exact["graph.csr_bytes"] = float64(graph.FromGraph(g).MemoryBytes())
	}
	r.add("trace.overhead_frac", wall[1]/wall[0]-1)
	return nil
}
