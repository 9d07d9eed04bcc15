package core

import (
	"bytes"
	"math/rand"
	"testing"

	"lowmemroute/internal/congest"
	"lowmemroute/internal/graph"
	"lowmemroute/internal/trace"
)

// buildResult captures the byte-exact trace export (every message, round
// and span) and the per-vertex meter peaks of one full construction.
type buildResult struct {
	trace []byte
	peaks []int64
}

func runBuildOn(t *testing.T, sim *congest.Simulator, rec *trace.Recorder, n, k int, seed int64) buildResult {
	t.Helper()
	if _, err := Build(sim, Options{K: k, Seed: seed, Epsilon: 0.01, Trace: rec}); err != nil {
		t.Fatal(err)
	}
	ex := rec.Export()
	ex.StripWall()
	var buf bytes.Buffer
	if err := trace.WriteExportJSON(&buf, ex); err != nil {
		t.Fatal(err)
	}
	res := buildResult{trace: buf.Bytes(), peaks: make([]int64, n)}
	for v := 0; v < n; v++ {
		res.peaks[v] = sim.Mem(v).Peak()
	}
	return res
}

// TestTopoBuildWorkerInvariant extends the LM003 worker-count invariance to
// a streamed-style NewTopo build: the scale harness runs congest.NewTopo
// under whatever GOMAXPROCS the host has, and its machine-readable stdout
// rows must not depend on it. Byte-identical traces at 1, 4 and 8 shards
// pin that.
func TestTopoBuildWorkerInvariant(t *testing.T) {
	const (
		n    = 150
		k    = 2
		seed = 11
	)
	g, err := graph.Generate(graph.FamilyErdosRenyi, n, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	runAt := func(workers int) buildResult {
		rec := trace.NewRecorder()
		sim := congest.NewTopo(graph.FromGraph(g),
			congest.WithSeed(seed), congest.WithTrace(rec), congest.WithShards(workers))
		return runBuildOn(t, sim, rec, g.N(), k, seed)
	}
	want := runAt(1)
	for _, workers := range []int{4, 8} {
		got := runAt(workers)
		if !bytes.Equal(want.trace, got.trace) {
			t.Errorf("workers=%d: trace differs from serial run on the CSR path", workers)
		}
		for v := range want.peaks {
			if want.peaks[v] != got.peaks[v] {
				t.Fatalf("workers=%d: vertex %d meter peak %d, want %d", workers, v, got.peaks[v], want.peaks[v])
			}
		}
	}
}
