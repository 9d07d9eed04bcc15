package congest

import (
	"math/rand"
	"testing"

	"lowmemroute/internal/graph"
	"lowmemroute/internal/trace"
)

func TestMeterSampleWindow(t *testing.T) {
	var m Meter
	if w := m.SampleWindow(); w != 0 {
		t.Fatalf("empty window=%d", w)
	}
	m.Charge(4)
	m.Release(3)
	if w := m.SampleWindow(); w != 4 {
		t.Fatalf("window should hold the in-window high-water 4, got %d", w)
	}
	// The next window starts at the current level, not at zero.
	if w := m.SampleWindow(); w != 1 {
		t.Fatalf("fresh window should equal current=1, got %d", w)
	}
	// Transient spikes are visible to the window without moving Current.
	m.Spike(10)
	if m.Current() != 1 {
		t.Fatalf("spike must not change current, got %d", m.Current())
	}
	if w := m.SampleWindow(); w != 11 {
		t.Fatalf("window should include the spike level 11, got %d", w)
	}
	if w := m.SampleWindow(); w != 1 {
		t.Fatalf("spike must not persist across windows, got %d", w)
	}
	// Sampling never perturbs the reported quantities.
	if m.Current() != 1 || m.Peak() != 11 {
		t.Fatalf("current=%d peak=%d after sampling", m.Current(), m.Peak())
	}
	m.Reset()
	if w := m.SampleWindow(); w != 0 {
		t.Fatalf("reset must clear the window, got %d", w)
	}
}

func TestMeterSampleWindowOverlappingCharges(t *testing.T) {
	var m Meter
	m.Charge(2)
	m.SampleWindow()
	// A charge+release cycle entirely inside one window must still be seen.
	m.Charge(7)
	m.Release(7)
	if w := m.SampleWindow(); w != 9 {
		t.Fatalf("window=%d want 9", w)
	}
}

// collectingSink records every sample pushed by the engine.
type collectingSink struct{ samples []trace.RoundSample }

func (c *collectingSink) RoundSample(s trace.RoundSample) { c.samples = append(c.samples, s) }

func TestRunEmitsRoundSamples(t *testing.T) {
	n := 6
	g := pathGraph(n)
	sink := &collectingSink{}
	s := New(g, WithTrace(sink))
	s.Run([]int{0}, 50, func(v int, ctx *Ctx) {
		if v == 0 && ctx.Round() == 0 {
			ctx.Send(1, Payload{}, 1)
			return
		}
		for range ctx.In() {
			if v+1 < n {
				ctx.Send(v+1, Payload{}, 1)
			}
		}
	})
	if len(sink.samples) == 0 {
		t.Fatal("no samples recorded")
	}
	var rounds, msgs int64
	lastRound := int64(0)
	for _, sm := range sink.samples {
		if sm.Kind != trace.KindRound {
			t.Fatalf("unexpected kind %q", sm.Kind)
		}
		if sm.Round <= lastRound {
			t.Fatalf("round indices must increase: %d after %d", sm.Round, lastRound)
		}
		lastRound = sm.Round
		rounds += sm.Rounds
		msgs += sm.Messages
	}
	if rounds != s.Rounds() {
		t.Fatalf("sample rounds %d != simulator rounds %d", rounds, s.Rounds())
	}
	if msgs != s.Messages() {
		t.Fatalf("sample messages %d != simulator messages %d", msgs, s.Messages())
	}
}

func TestBroadcastEmitsAggregateSample(t *testing.T) {
	g := pathGraph(5)
	sink := &collectingSink{}
	s := New(g, WithTrace(sink))
	s.Broadcast([]BroadcastMsg{{Origin: 0, Words: 2}}, nil)
	if len(sink.samples) != 1 {
		t.Fatalf("samples=%d want 1", len(sink.samples))
	}
	sm := sink.samples[0]
	if sm.Kind != trace.KindBroadcast {
		t.Fatalf("kind=%q", sm.Kind)
	}
	if sm.Rounds != s.Rounds() {
		t.Fatalf("broadcast sample rounds %d != simulator rounds %d", sm.Rounds, s.Rounds())
	}
	if sm.Messages != s.Messages() {
		t.Fatalf("broadcast sample messages %d != %d", sm.Messages, s.Messages())
	}
}

func TestTracingIsObservational(t *testing.T) {
	run := func(opts ...Option) (*Simulator, error) {
		g, err := graph.Generate(graph.FamilyErdosRenyi, 40, rand.New(rand.NewSource(21)))
		if err != nil {
			return nil, err
		}
		s := New(g, opts...)
		// Flood a token everywhere, charging memory along the way, so
		// every counter moves.
		seen := make([]bool, s.N())
		s.Run([]int{0}, 200, func(v int, ctx *Ctx) {
			first := !seen[v]
			for range ctx.In() {
			}
			if v == 0 && ctx.Round() == 0 {
				first = true
			}
			if first {
				seen[v] = true
				ctx.Mem().Charge(2)
				ctx.Mem().Spike(5)
				to, _ := s.Topo().NeighborRange(v)
				for _, u := range to {
					if !seen[u] {
						ctx.Send(int(u), Payload{}, 1)
					}
				}
			}
		})
		return s, nil
	}
	plain, err := run(WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	traced, err := run(WithSeed(3), WithTrace(&collectingSink{}))
	if err != nil {
		t.Fatal(err)
	}
	if plain.Rounds() != traced.Rounds() || plain.Messages() != traced.Messages() ||
		plain.Words() != traced.Words() || plain.PeakMemory() != traced.PeakMemory() {
		t.Fatalf("tracing changed the simulation: %d/%d/%d/%d vs %d/%d/%d/%d",
			plain.Rounds(), plain.Messages(), plain.Words(), plain.PeakMemory(),
			traced.Rounds(), traced.Messages(), traced.Words(), traced.PeakMemory())
	}
}
