package congest

// Hostile engine sections: a CRC-valid checkpoint can still carry any word,
// so every count the restore path loops or allocates over is bounded by the
// words the section actually has. A count word of 2^20 in a section a few
// hundred words long must fail fast, without allocating for the count.

import (
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"lowmemroute/internal/faults"
	"lowmemroute/internal/graph"
	"lowmemroute/internal/trace"
)

// hugeCount is the count word the probes plant: far more elements than any
// probe section has words for.
const hugeCount = 1 << 20

// ckptFuzzSim returns the simulator the probes and the fuzz target restore
// into: a three-vertex path under a fault plan, so fault cursors are
// restorable. It is tiny so the fuzzer's seed sections stay under a
// hundred words: the fuzzer minimizes every new input byte by byte.
func ckptFuzzSim() *Simulator {
	return NewTopo(ckptFuzzTopo, WithFaults(&faults.Plan{Seed: 1, Drop: 0.2, Delay: 2, Duplicate: 0.1}))
}

var ckptFuzzTopo = graph.FromGraph(graph.Path(3, graph.UnitWeights, rand.New(rand.NewSource(3))))

// totalAlloc reports the bytes fn allocated on the heap.
func totalAlloc(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestRestoreEngineCkptBoundsCounts plants a 2^20 count at every count the
// engine section carries: fault cursors, the active list, an inbox, the
// dirty destinations, a destination's edges, an edge queue and a message's
// Ext tail. Each restore must return an error and allocate under 1 MiB.
func TestRestoreEngineCkptBoundsCounts(t *testing.T) {
	s := ckptFuzzSim()
	quiet := s.appendEngineCkpt(nil, -1) // ends with the fault-cursor count
	mid := s.appendEngineCkpt(nil, 0)    // ends with executed, active count, dirty count
	prefix := mid[:len(mid)-3]
	s.ensureTopology()
	v := 1
	e := int(s.inEdges[s.inStart[v]])
	msg := func(extLen uint64) []uint64 { return []uint64{4, 1, 0, 0, 0, 0, 1, extLen} }
	cat := func(parts ...[]uint64) []uint64 {
		var out []uint64
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	w := func(xs ...uint64) []uint64 { return xs }

	probes := []struct {
		name    string
		section []uint64
	}{
		{"fault-cursors", cat(quiet[:len(quiet)-1], w(hugeCount))},
		{"active-list", cat(prefix, w(0, hugeCount, 0))},
		{"inbox", cat(prefix, w(0, 1, uint64(v), hugeCount, 0), w(0))},
		{"dirty-destinations", cat(prefix, w(0, 0, hugeCount))},
		{"destination-edges", cat(prefix, w(0, 0, 1, uint64(v), hugeCount))},
		{"edge-queue", cat(prefix, w(0, 0, 1, uint64(v), 1, uint64(e), 0, hugeCount))},
		{"ext-tail", cat(prefix, w(0, 1, uint64(v), 1, 0), msg(hugeCount), w(0))},
	}
	for _, p := range probes {
		t.Run(p.name, func(t *testing.T) {
			sim := ckptFuzzSim()
			if err := sim.restoreEngineCkpt(quiet); err != nil {
				t.Fatalf("restoring the genuine section: %v", err)
			}
			var err error
			alloc := totalAlloc(func() { err = sim.restoreEngineCkpt(p.section) })
			if err == nil {
				t.Fatal("a section with a 2^20 count restored without error")
			}
			if alloc >= 1<<20 {
				t.Fatalf("restore allocated %d bytes for a %d-word section", alloc, len(p.section))
			}
		})
	}
}

// wordsToBytes and bytesToWords convert between a section payload and the
// fuzzer's byte input (little-endian words; trailing odd bytes ignored).
func wordsToBytes(words []uint64) []byte {
	out := make([]byte, 0, 8*len(words))
	for _, w := range words {
		out = binary.LittleEndian.AppendUint64(out, w)
	}
	return out
}

func bytesToWords(b []byte) []uint64 {
	words := make([]uint64, len(b)/8)
	for i := range words {
		words[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	return words
}

// FuzzRestoreEngineCkpt feeds arbitrary words to the engine-section restore
// on a small faulted simulator. Restore may reject its input, but it must
// return an error or nil — never panic. (The allocation bound is
// TestRestoreEngineCkptBoundsCounts's; measuring it here would slow every
// exec with two stop-the-world MemStats reads.)
// The seeds are a genuine quiescent section, a genuine mid-run section
// (pending inboxes, backlogged queues, Ext tails, fault cursors) and the
// 2^20 inbox-count probe.
func FuzzRestoreEngineCkpt(f *testing.F) {
	// A two-round flood with Ext tails, checkpointed after round 1: the
	// section holds pending inboxes, backlogged queues and fault cursors.
	// The file is removed before fuzzing starts, not by f.TempDir's cleanup:
	// a worker stopped at the time limit never runs its cleanups.
	dir, err := os.MkdirTemp("", "ckpt-fuzz-seed")
	if err != nil {
		f.Fatal(err)
	}
	path := filepath.Join(dir, "mid.ckpt")
	ck := NewCheckpointer(path, 1)
	ck.MidRun(true)
	sim := ckptFuzzSim()
	if err := ck.Attach(sim); err != nil {
		f.Fatal(err)
	}
	all := make([]int, sim.N())
	for v := range all {
		all[v] = v
	}
	sim.Run(all, 2, func(v int, ctx *Ctx) {
		if ctx.Round() < 2 {
			nbrs, _ := sim.Topo().NeighborRange(v)
			for _, u := range nbrs {
				ext := ctx.Ext(1)
				ext[0] = uint64(v)
				ctx.Send(int(u), Payload{Kind: 1, W0: IntWord(v), Ext: ext}, 1+v%3)
			}
			ctx.Wake()
		}
	})
	if err := ck.Err(); err != nil {
		f.Fatal(err)
	}
	c, err := trace.ReadCheckpointFile(path)
	os.RemoveAll(dir)
	if err != nil {
		f.Fatal(err)
	}
	mid, ok, err := c.Section(EngineSection)
	if err != nil || !ok {
		f.Fatalf("engine section: ok=%v err=%v", ok, err)
	}
	// The quiescent seed re-encodes the restored mid-run state: genuine
	// counters, meters and fault cursors, without the pending traffic.
	restored := ckptFuzzSim()
	if err := restored.restoreEngineCkpt(mid); err != nil {
		f.Fatal(err)
	}
	quiet := restored.appendEngineCkpt(nil, -1)
	// The probe: the quiescent header and cursors flagged mid-run, then one
	// active vertex whose inbox claims 2^20 messages.
	probe := append([]uint64(nil), quiet...)
	probe[1] = engineFlagMid
	probe = append(probe, 0, 1, 0, hugeCount, 0, 0)
	for _, seed := range [][]uint64{quiet, mid, probe} {
		f.Add(wordsToBytes(seed))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		words := bytesToWords(b)
		if err := ckptFuzzSim().restoreEngineCkpt(words); err == nil && len(words) == 0 {
			t.Fatal("an empty section restored without error")
		}
	})
}
