package congest

import (
	"math"
	"math/rand"
	"testing"

	"lowmemroute/internal/graph"
)

func TestWordHelpersRoundTrip(t *testing.T) {
	for _, v := range []int{0, 1, -1, -2, 1 << 40, -(1 << 40), math.MaxInt64 >> 1} {
		if got := WordInt(IntWord(v)); got != v {
			t.Fatalf("IntWord roundtrip: %d -> %d", v, got)
		}
	}
	for _, f := range []float64{0, 1.5, -3.25, math.Inf(1), math.MaxFloat64, math.SmallestNonzeroFloat64} {
		if got := WordFloat(FloatWord(f)); got != f {
			t.Fatalf("FloatWord roundtrip: %v -> %v", f, got)
		}
	}
	if !WordBool(BoolWord(true)) || WordBool(BoolWord(false)) {
		t.Fatal("BoolWord roundtrip")
	}
}

// TestExtPayloadRelayChain sends a variable-length tail down a path, each hop
// appending its own id before relaying. Send's copy-on-send semantics mean
// the received Ext (engine-owned) and the Ctx.Ext scratch (reused every hop)
// are both safe to reuse immediately after Send.
func TestExtPayloadRelayChain(t *testing.T) {
	const n = 5
	const kindTrail PayloadKind = 9
	g := graph.Path(n, graph.UnitWeights, rand.New(rand.NewSource(1)))
	s := New(g)
	var final []uint64
	s.Run([]int{0}, 20, func(v int, ctx *Ctx) {
		if v == 0 && ctx.Round() == 0 {
			buf := ctx.Ext(1)
			buf[0] = IntWord(0)
			ctx.Send(1, Payload{Kind: kindTrail, W0: 1, Ext: buf}, 2)
			return
		}
		for _, m := range ctx.In() {
			if m.Payload.Kind != kindTrail {
				continue
			}
			k := int(m.Payload.W0)
			buf := ctx.Ext(k + 1)
			copy(buf, m.Payload.Ext)
			buf[k] = IntWord(v)
			if v == n-1 {
				final = append([]uint64(nil), buf...)
				continue
			}
			ctx.Send(v+1, Payload{Kind: kindTrail, W0: uint64(k + 1), Ext: buf}, k+2)
			// The engine copied buf on Send: clobbering the scratch now must
			// not corrupt the in-flight message.
			for i := range buf {
				buf[i] = ^uint64(0)
			}
		}
	})
	want := []uint64{IntWord(0), IntWord(1), IntWord(2), IntWord(3), IntWord(4)}
	if len(final) != len(want) {
		t.Fatalf("final trail %v, want %v", final, want)
	}
	for i := range want {
		if final[i] != want[i] {
			t.Fatalf("trail[%d]=%d want %d (full: %v)", i, final[i], want[i], final)
		}
	}
}

// TestRelayReceivedPayloadVerbatim relays m.Payload itself (the common
// forward-to-children pattern): Send re-clones the engine-owned Ext, so the
// same received payload can be fanned out and still be recycled safely.
func TestRelayReceivedPayloadVerbatim(t *testing.T) {
	const kindList PayloadKind = 3
	g := graph.Star(4, graph.UnitWeights, rand.New(rand.NewSource(1)))
	s := New(g)
	got := make([][]uint64, 4)
	s.Run([]int{1}, 10, func(v int, ctx *Ctx) {
		switch {
		case v == 1 && ctx.Round() == 0:
			buf := ctx.Ext(3)
			buf[0], buf[1], buf[2] = 7, 8, 9
			ctx.Send(0, Payload{Kind: kindList, Ext: buf}, 4)
		case v == 0:
			for _, m := range ctx.In() {
				ctx.Send(2, m.Payload, m.Words)
				ctx.Send(3, m.Payload, m.Words)
			}
		default:
			for _, m := range ctx.In() {
				got[v] = append([]uint64(nil), m.Payload.Ext...)
			}
		}
	})
	for _, v := range []int{2, 3} {
		if len(got[v]) != 3 || got[v][0] != 7 || got[v][1] != 8 || got[v][2] != 9 {
			t.Fatalf("vertex %d received %v, want [7 8 9]", v, got[v])
		}
	}
}

// TestExtTrafficSteadyStateAllocFree pins the arena contract: once the free
// lists are warm, a Run that ships variable-length payloads performs no
// allocation.
func TestExtTrafficSteadyStateAllocFree(t *testing.T) {
	g := graph.Path(8, graph.UnitWeights, rand.New(rand.NewSource(1)))
	s := New(g, WithShards(1))
	const kindBlob PayloadKind = 5
	initial := []int{0}
	step := func(v int, ctx *Ctx) {
		if v == 0 && ctx.Round() == 0 {
			buf := ctx.Ext(6)
			for i := range buf {
				buf[i] = uint64(i)
			}
			ctx.Send(1, Payload{Kind: kindBlob, Ext: buf}, 7)
			return
		}
		for _, m := range ctx.In() {
			if m.Payload.Kind == kindBlob && v < 7 {
				ctx.Send(v+1, m.Payload, m.Words)
			}
		}
	}
	run := func() { s.Run(initial, 40, step) }
	for i := 0; i < 3; i++ {
		run() // warm queues, inboxes, and arena size classes
	}
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Fatalf("steady-state Run with Ext payloads allocates %v/op, want 0", allocs)
	}
}

// TestDrainAllRecyclesExt covers the maxRounds cutoff path: undelivered Ext
// chunks in queue backlogs return to the arena and later Runs still see
// intact payload data.
func TestDrainAllRecyclesExt(t *testing.T) {
	const kindBlob PayloadKind = 6
	g := graph.Path(2, graph.UnitWeights, rand.New(rand.NewSource(1)))
	s := New(g, WithEdgeCapacity(1))
	// Phase 1: a 10-word ext message over a capacity-1 edge, cut off at 3
	// rounds - the chunk is stranded in the queue and must be drained.
	s.Run([]int{0}, 3, func(v int, ctx *Ctx) {
		if v == 0 && ctx.Round() == 0 {
			buf := ctx.Ext(9)
			for i := range buf {
				buf[i] = 0xAA
			}
			ctx.Send(1, Payload{Kind: kindBlob, Ext: buf}, 10)
		}
	})
	// Phase 2: same-size message must arrive intact (the recycled chunk is
	// fully overwritten by copy-on-send).
	var got []uint64
	s.Run([]int{0}, 100, func(v int, ctx *Ctx) {
		if v == 0 && ctx.Round() == 0 {
			buf := ctx.Ext(9)
			for i := range buf {
				buf[i] = uint64(100 + i)
			}
			ctx.Send(1, Payload{Kind: kindBlob, Ext: buf}, 10)
		}
		if v == 1 {
			for _, m := range ctx.In() {
				got = append([]uint64(nil), m.Payload.Ext...)
			}
		}
	})
	if len(got) != 9 {
		t.Fatalf("phase 2 payload length %d, want 9", len(got))
	}
	for i, w := range got {
		if w != uint64(100+i) {
			t.Fatalf("phase 2 payload word %d = %d, want %d", i, w, 100+i)
		}
	}
}
