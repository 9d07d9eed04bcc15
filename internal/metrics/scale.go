package metrics

import (
	"bufio"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"lowmemroute/internal/congest"
	"lowmemroute/internal/core"
	"lowmemroute/internal/graph"
	"lowmemroute/internal/hopset"
	"lowmemroute/internal/obs"
)

// ScaleRow is one (n, k) cell of the scale sweep (experiment E12): the
// paper's scheme built on the compact CSR substrate, with the quantities
// that pin the Õ(n^{1/k}) memory curve. All fields except the host-measured
// ones at the bottom are deterministic for a fixed seed, so callers print
// them to stdout and keep wall times on stderr.
type ScaleRow struct {
	Family graph.Family
	N, K   int
	M      int // undirected host edges

	Rounds   int64
	Messages int64

	TableMaxW int     // max per-vertex table, words
	TableAvgW float64 // mean per-vertex table, words
	LabelMaxW int     // max label, words
	MemPeakW  int64   // max per-vertex meter peak, words
	MemAvgW   float64 // mean per-vertex meter peak, words

	GraphBytes int64 // retained CSR footprint

	// Host-measured; nondeterministic.
	GenWall   time.Duration
	BuildWall time.Duration
	HeapLive  uint64 // live heap after the build (post-GC)
	PeakRSS   uint64 // process high-water RSS (VmHWM), 0 if unavailable
}

// ScaleConfig configures one cell of RunScale.
type ScaleConfig struct {
	Family graph.Family
	N, K   int
	Seed   int64
	// Shards is the parallel execution shard count (congest.WithShards);
	// 0 keeps the simulator default. Every observable row field is
	// byte-identical at any shard count.
	Shards int
	// Metrics, when non-nil, receives build phase/progress (see core.Options).
	Metrics *obs.Registry
	// Ckpt, when non-nil, checkpoints the build (see core.Options.Ckpt).
	// RunScale stamps the cell's identity (mode, family, n, k, seed) into the
	// checkpoint metadata, so resuming under different parameters fails
	// loudly before any state is restored.
	Ckpt *congest.Checkpointer
}

// RunScale generates the instance straight into CSR form (no slice-of-slices
// graph is ever materialised), runs the paper's distributed construction on
// a simulator over it, and measures the row.
func RunScale(cfg ScaleConfig) (*ScaleRow, error) {
	row := &ScaleRow{Family: cfg.Family, N: cfg.N, K: cfg.K}

	t0 := time.Now()
	csr, err := graph.GenerateCSR(cfg.Family, cfg.N, rand.New(rand.NewSource(cfg.Seed)))
	if err != nil {
		return nil, fmt.Errorf("metrics: scale generate n=%d: %w", cfg.N, err)
	}
	row.GenWall = time.Since(t0)
	row.N = csr.N() // families round n (e.g. grid side×cols); record the real size
	row.M = csr.M()
	row.GraphBytes = csr.MemoryBytes()

	for _, kv := range [][2]string{
		{"mode", "scale"},
		{"family", string(cfg.Family)},
		{"n", strconv.Itoa(csr.N())},
		{"k", strconv.Itoa(cfg.K)},
		{"seed", strconv.FormatInt(cfg.Seed, 10)},
	} {
		if err := cfg.Ckpt.SetMeta(kv[0], kv[1]); err != nil {
			return nil, fmt.Errorf("metrics: scale checkpoint: %w", err)
		}
	}

	sim := congest.NewTopo(csr, congest.WithSeed(cfg.Seed), congest.WithMetrics(cfg.Metrics),
		congest.WithShards(cfg.Shards))
	t1 := time.Now()
	s, err := core.Build(sim, core.Options{K: cfg.K, Seed: cfg.Seed, Metrics: cfg.Metrics, Ckpt: cfg.Ckpt})
	if err != nil {
		return nil, fmt.Errorf("metrics: scale build n=%d k=%d: %w", cfg.N, cfg.K, err)
	}
	if err := cfg.Ckpt.Err(); err != nil {
		return nil, fmt.Errorf("metrics: scale checkpoint n=%d k=%d: %w", cfg.N, cfg.K, err)
	}
	row.BuildWall = time.Since(t1)

	row.Rounds = sim.Rounds()
	row.Messages = sim.Messages()
	row.MemPeakW = sim.PeakMemory()
	row.MemAvgW = sim.AvgPeakMemory()
	row.LabelMaxW = s.MaxLabelWords()
	var sumTab int64
	for _, t := range s.Tables {
		w := t.Words()
		if w > row.TableMaxW {
			row.TableMaxW = w
		}
		sumTab += int64(w)
	}
	if cfg.N > 0 {
		row.TableAvgW = float64(sumTab) / float64(cfg.N)
	}

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	row.HeapLive = ms.HeapAlloc
	row.PeakRSS = readPeakRSS()
	return row, nil
}

// DeterministicLine renders the machine-readable stdout row of one cell:
// space-separated key=value pairs, deterministic for a fixed seed (no wall
// times, no heap figures).
func (r *ScaleRow) DeterministicLine() string {
	return fmt.Sprintf(
		"scale family=%s n=%d k=%d m=%d rounds=%d messages=%d table_max_w=%d table_avg_w=%.2f label_max_w=%d mem_peak_w=%d mem_avg_w=%.2f graph_bytes=%d",
		r.Family, r.N, r.K, r.M, r.Rounds, r.Messages,
		r.TableMaxW, r.TableAvgW, r.LabelMaxW, r.MemPeakW, r.MemAvgW, r.GraphBytes)
}

// HostLine renders the host-measured stderr row of one cell.
func (r *ScaleRow) HostLine() string {
	perRound := time.Duration(0)
	if r.Rounds > 0 {
		perRound = r.BuildWall / time.Duration(r.Rounds)
	}
	return fmt.Sprintf(
		"scale-host n=%d k=%d gen=%s build=%s per_round=%s heap_live=%d peak_rss=%d",
		r.N, r.K, r.GenWall.Round(time.Millisecond), r.BuildWall.Round(time.Millisecond),
		perRound, r.HeapLive, r.PeakRSS)
}

// ProbeRow is the result of RunSubstrateProbe: the compact substrate booted
// at a size where the full Õ(√n)-round construction is wall-clock infeasible
// in a test run, exercised by one full set-source exploration. It
// demonstrates that graph generation, the CSR, the simulator's directed-edge
// state, and the exploration machinery all hold at million-vertex scale
// within bounded memory.
type ProbeRow struct {
	Family graph.Family
	N, M   int

	Rounds     int64
	Messages   int64
	Reached    int   // vertices with a finite distance after the exploration
	MemPeakW   int64 // max per-vertex meter peak, words
	GraphBytes int64 // retained CSR footprint

	// Host-measured; nondeterministic.
	GenWall     time.Duration
	ExploreWall time.Duration
	HeapLive    uint64
	PeakRSS     uint64
}

// ProbeConfig configures one RunSubstrateProbe invocation.
type ProbeConfig struct {
	Family graph.Family
	N      int
	// Hops bounds the set-source exploration; <= 0 floods the whole graph. A
	// bounded budget (the default in cmd/routebench) keeps the exploration
	// itself cheap so the probe measures the substrate's resident footprint,
	// not Bellman-Ford congestion.
	Hops int
	Seed int64
	// Shards is the parallel execution shard count (congest.WithShards);
	// 0 keeps the simulator default.
	Shards int
	// Ckpt, when non-nil, checkpoints the exploration mid-run at the
	// checkpointer's round cadence: the probe is one long Run, so the
	// explorer registers as a provider and the engine snapshots at round
	// boundaries. A resumed probe continues the interrupted exploration and
	// reports the same row.
	Ckpt *congest.Checkpointer
}

// RunSubstrateProbe streams an n-vertex instance into CSR form, boots a
// simulator over it (whose first Run materialises the full directed-edge
// engine state), and runs one hop-bounded set-source exploration.
func RunSubstrateProbe(cfg ProbeConfig) (*ProbeRow, error) {
	row := &ProbeRow{Family: cfg.Family, N: cfg.N}
	hops := cfg.Hops
	if hops <= 0 {
		hops = cfg.N
	}

	t0 := time.Now()
	csr, err := graph.GenerateCSR(cfg.Family, cfg.N, rand.New(rand.NewSource(cfg.Seed)))
	if err != nil {
		return nil, fmt.Errorf("metrics: probe generate n=%d: %w", cfg.N, err)
	}
	row.GenWall = time.Since(t0)
	row.N = csr.N()
	row.M = csr.M()
	row.GraphBytes = csr.MemoryBytes()

	for _, kv := range [][2]string{
		{"mode", "probe"},
		{"family", string(cfg.Family)},
		{"n", strconv.Itoa(csr.N())},
		{"hops", strconv.Itoa(hops)},
		{"seed", strconv.FormatInt(cfg.Seed, 10)},
	} {
		if err := cfg.Ckpt.SetMeta(kv[0], kv[1]); err != nil {
			return nil, fmt.Errorf("metrics: probe checkpoint: %w", err)
		}
	}

	sim := congest.NewTopo(csr, congest.WithSeed(cfg.Seed), congest.WithShards(cfg.Shards))
	// The probe is a single Run with one stateful provider (the explorer),
	// whose estimate lists are consistent at every round boundary — exactly
	// the contract mid-run cadence snapshots need.
	cfg.Ckpt.MidRun(true)
	if err := cfg.Ckpt.Attach(sim); err != nil {
		return nil, fmt.Errorf("metrics: probe checkpoint: %w", err)
	}
	ex := hopset.NewExplorer(sim)
	if err := cfg.Ckpt.Register(ex); err != nil {
		return nil, fmt.Errorf("metrics: probe checkpoint: %w", err)
	}
	t1 := time.Now()
	dist, _, _, err := ex.DistToSet([]int{0}, hops)
	if err != nil {
		return nil, fmt.Errorf("metrics: probe exploration n=%d: %w", cfg.N, err)
	}
	if err := cfg.Ckpt.Err(); err != nil {
		return nil, fmt.Errorf("metrics: probe checkpoint n=%d: %w", cfg.N, err)
	}
	row.ExploreWall = time.Since(t1)
	for _, d := range dist {
		if d != graph.Infinity {
			row.Reached++
		}
	}
	row.Rounds = sim.Rounds()
	row.Messages = sim.Messages()
	row.MemPeakW = sim.PeakMemory()

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	row.HeapLive = ms.HeapAlloc
	row.PeakRSS = readPeakRSS()
	return row, nil
}

// DeterministicLine renders the machine-readable stdout row of a probe.
func (r *ProbeRow) DeterministicLine() string {
	return fmt.Sprintf(
		"scale-probe family=%s n=%d m=%d rounds=%d messages=%d reached=%d mem_peak_w=%d graph_bytes=%d",
		r.Family, r.N, r.M, r.Rounds, r.Messages, r.Reached, r.MemPeakW, r.GraphBytes)
}

// HostLine renders the host-measured stderr row of a probe.
func (r *ProbeRow) HostLine() string {
	return fmt.Sprintf(
		"scale-probe-host n=%d gen=%s explore=%s heap_live=%d peak_rss=%d",
		r.N, r.GenWall.Round(time.Millisecond), r.ExploreWall.Round(time.Millisecond),
		r.HeapLive, r.PeakRSS)
}

// FitLogSlope fits ln(y) = a + slope·ln(x) by least squares over the given
// points, skipping non-positive values. It needs at least two usable points;
// otherwise it returns NaN.
func FitLogSlope(xs []float64, ys []float64) float64 {
	var sx, sy, sxx, sxy float64
	n := 0
	for i := range xs {
		if i >= len(ys) || xs[i] <= 0 || ys[i] <= 0 {
			continue
		}
		lx, ly := math.Log(xs[i]), math.Log(ys[i])
		sx += lx
		sy += ly
		sxx += lx * lx
		sxy += lx * ly
		n++
	}
	if n < 2 {
		return math.NaN()
	}
	den := float64(n)*sxx - sx*sx
	if den == 0 {
		return math.NaN()
	}
	return (float64(n)*sxy - sx*sy) / den
}

// SlopeByK groups the rows by k and fits the log-log slope of the chosen
// per-vertex size metric against n. The paper predicts slope ≈ 1/k for
// table words and peak memory words.
func SlopeByK(rows []*ScaleRow, metric func(*ScaleRow) float64) map[int]float64 {
	byK := map[int][][2]float64{}
	for _, r := range rows {
		byK[r.K] = append(byK[r.K], [2]float64{float64(r.N), metric(r)})
	}
	out := make(map[int]float64, len(byK))
	for k, pts := range byK {
		xs := make([]float64, len(pts))
		ys := make([]float64, len(pts))
		for i, p := range pts {
			xs[i], ys[i] = p[0], p[1]
		}
		out[k] = FitLogSlope(xs, ys)
	}
	return out
}

// readPeakRSS returns the process's peak resident set size in bytes from
// /proc/self/status (VmHWM), or 0 on platforms without procfs.
func readPeakRSS() uint64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return 0
		}
		return kb * 1024
	}
	return 0
}
