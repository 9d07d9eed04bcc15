package congest

import (
	"math/rand"
	"testing"

	"lowmemroute/internal/graph"
)

func TestQueueFIFOPerEdge(t *testing.T) {
	// Messages sent on one edge in one round must be delivered in send
	// order, even when bandwidth splits them across rounds.
	g := pathGraph(2)
	s := New(g, WithEdgeCapacity(1))
	var got []int
	s.Run([]int{0}, 30, func(v int, ctx *Ctx) {
		if v == 0 && ctx.Round() == 0 {
			for i := 0; i < 6; i++ {
				ctx.Send(1, Payload{W0: IntWord(i)}, 1)
			}
		}
		if v == 1 {
			for _, m := range ctx.In() {
				got = append(got, WordInt(m.Payload.W0))
			}
		}
	})
	if len(got) != 6 {
		t.Fatalf("delivered %d", len(got))
	}
	for i, x := range got {
		if x != i {
			t.Fatalf("out of order: %v", got)
		}
	}
}

func TestRunTwicePhases(t *testing.T) {
	// Two consecutive Runs on the same simulator: counters accumulate and
	// state from phase 1 does not leak into phase 2's inboxes.
	g := pathGraph(3)
	s := New(g)
	const kindPhase1, kindPhase2 = PayloadKind(1), PayloadKind(2)
	s.Run([]int{0}, 5, func(v int, ctx *Ctx) {
		if v == 0 && ctx.Round() == 0 {
			ctx.Send(1, Payload{Kind: kindPhase1}, 1)
		}
	})
	r1 := s.Rounds()
	leaked := false
	s.Run([]int{2}, 5, func(v int, ctx *Ctx) {
		for _, m := range ctx.In() {
			if m.Payload.Kind == kindPhase1 {
				leaked = true
			}
		}
		if v == 2 && ctx.Round() == 0 {
			ctx.Send(1, Payload{Kind: kindPhase2}, 1)
		}
	})
	if leaked {
		t.Fatal("phase 1 message leaked into phase 2")
	}
	if s.Rounds() <= r1 {
		t.Fatal("rounds should accumulate across runs")
	}
}

func TestWithDiameterAffectsBroadcastOnly(t *testing.T) {
	g := pathGraph(4)
	a := New(g, WithDiameter(3))
	b := New(g, WithDiameter(100))
	msg := []BroadcastMsg{{Origin: 0, Words: 1}}
	a.Broadcast(msg, nil)
	b.Broadcast(msg, nil)
	if b.Rounds()-a.Rounds() != 2*(100-3) {
		t.Fatalf("diameter delta: %d vs %d", a.Rounds(), b.Rounds())
	}
}

func TestBroadcastWordAccounting(t *testing.T) {
	g := pathGraph(5)
	s := New(g, WithDiameter(4))
	s.Broadcast([]BroadcastMsg{
		{Origin: 0, Words: 3},
		{Origin: 1, Words: 2},
	}, nil)
	// words = (3+2) * (n-1) tree edges.
	if got, want := s.Words(), int64(5*4); got != want {
		t.Fatalf("words=%d want %d", got, want)
	}
}

func TestBroadcastZeroWordMessagesCountAsOne(t *testing.T) {
	g := pathGraph(3)
	s := New(g, WithDiameter(2))
	s.Broadcast([]BroadcastMsg{{Origin: 0, Words: 0}}, nil)
	if got := s.Words(); got != 2 { // 1 word * 2 tree edges
		t.Fatalf("words=%d want 2", got)
	}
}

func TestConvergecastMemorySpikesAtSink(t *testing.T) {
	g := pathGraph(4)
	s := New(g, WithDiameter(3))
	s.Convergecast(0, []BroadcastMsg{{Origin: 2, Words: 5}}, func(m *BroadcastMsg) {})
	if s.Mem(0).Peak() != 5 {
		t.Fatalf("sink peak=%d want 5", s.Mem(0).Peak())
	}
	if s.Mem(1).Peak() != 0 {
		t.Fatalf("relay peak=%d want 0 (streaming)", s.Mem(1).Peak())
	}
}

func TestSimulatorAccessors(t *testing.T) {
	g := pathGraph(3)
	s := New(g, WithSeed(5))
	if s.N() != 3 {
		t.Fatalf("N=%d", s.N())
	}
	if tp := s.Topo(); tp.N() != g.N() || tp.M() != g.M() || !tp.HasEdge(1, 2) {
		t.Fatal("Topo accessor")
	}
	if s.Diameter() < 2 {
		t.Fatalf("D=%d", s.Diameter())
	}
	if s.Rand() == nil {
		t.Fatal("nil rng")
	}
}

func TestDisconnectedGraphDiameterFallback(t *testing.T) {
	g := graph.New(4)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(2, 3, 1)
	s := New(g)
	if s.Diameter() < 1 {
		t.Fatalf("D=%d want >= 1 fallback", s.Diameter())
	}
}

func TestLargeFanInOneRound(t *testing.T) {
	// n-1 leaves -> center in a single round: capacity applies per edge,
	// so everything lands in one round and only the largest single message
	// spikes the center's memory.
	n := 300
	g := graph.Star(n, graph.UnitWeights, rand.New(rand.NewSource(1)))
	s := New(g)
	received := 0
	rounds := s.Run(leafIDs(n), 3, func(v int, ctx *Ctx) {
		if v != 0 && ctx.Round() == 0 {
			ctx.Send(0, Payload{W0: IntWord(v)}, 2)
		}
		if v == 0 {
			received += len(ctx.In())
		}
	})
	if received != n-1 {
		t.Fatalf("received %d", received)
	}
	if rounds > 2 {
		t.Fatalf("rounds=%d want <= 2", rounds)
	}
	if s.Mem(0).Peak() != 2 {
		t.Fatalf("center peak=%d want 2 (one message)", s.Mem(0).Peak())
	}
}

func leafIDs(n int) []int {
	out := make([]int, 0, n-1)
	for v := 1; v < n; v++ {
		out = append(out, v)
	}
	return out
}
