package congest

// Fault-injection engine semantics: the WithFaults(nil) A/B guarantee (the
// clean path is byte-identical with and without the option), drop/retry
// budgets, delay pacing, duplication, crash-stop and crash-recover windows,
// partitions, worker-count invariance under an active plan, and the
// Broadcast/Convergecast retry accounting.

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"lowmemroute/internal/faults"
	"lowmemroute/internal/graph"
)

// floodResult captures everything observable about a flood workload run.
type floodResult struct {
	rounds, messages, words int64
	peaks                   []int64
	logs                    [][]rcvd
	ctr                     faults.Counters
}

// runFlood executes the worker-invariance flood workload under opts.
func runFlood(workers, floodRounds int, opts ...Option) floodResult {
	g := graph.Torus(8, 8, graph.UnitWeights, rand.New(rand.NewSource(3)))
	s := New(g, append([]Option{WithShards(workers)}, opts...)...)
	all := make([]int, g.N())
	for v := range all {
		all[v] = v
	}
	logs := make([][]rcvd, g.N())
	s.Run(all, 64*floodRounds+64, func(v int, ctx *Ctx) {
		for _, m := range ctx.In() {
			logs[v] = append(logs[v], rcvd{Round: ctx.Round(), From: m.From, Words: m.Words, Payload: m.Payload})
		}
		if ctx.Round() < floodRounds {
			for _, nb := range g.Neighbors(v) {
				ctx.Send(nb.To, Payload{W0: IntWord(v*1000 + ctx.Round())}, 1+(v+nb.To+ctx.Round())%7)
			}
			ctx.Wake()
		}
	})
	res := floodResult{rounds: s.Rounds(), messages: s.Messages(), words: s.Words(), logs: logs, ctr: s.FaultCounters()}
	res.peaks = make([]int64, g.N())
	for v := 0; v < g.N(); v++ {
		res.peaks[v] = s.Mem(v).Peak()
	}
	return res
}

// TestWithFaultsNilIsIdentical is the no-plan A/B guarantee: constructing
// with WithFaults(nil) — or with an empty plan — leaves every observable
// output equal to a simulator built without the option.
func TestWithFaultsNilIsIdentical(t *testing.T) {
	base := runFlood(4, 5)
	for _, tc := range []struct {
		name string
		opt  Option
	}{
		{"nil-plan", WithFaults(nil)},
		{"empty-plan", WithFaults(&faults.Plan{})},
		{"seed-only-plan", WithFaults(&faults.Plan{Seed: 9, RetryBudget: 3})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := runFlood(4, 5, tc.opt)
			if !reflect.DeepEqual(got, base) {
				t.Fatalf("run with %s differs from run without WithFaults", tc.name)
			}
		})
	}
}

// TestFaultWorkerCountInvariance runs a plan with every fault class enabled
// at several worker widths: fault decisions are stateless hashes, so logs,
// counters and meters must be identical regardless of delivery sharding.
func TestFaultWorkerCountInvariance(t *testing.T) {
	plan := &faults.Plan{
		Seed: 11, Drop: 0.2, Delay: 2, Duplicate: 0.1,
		Crashes:    []faults.Crash{{Vertex: 5, From: 3, Until: 9}},
		Partitions: []faults.Partition{{Members: []int{0, 1, 8, 9}, From: 4, Until: 12}},
	}
	base := runFlood(1, 5, WithFaults(plan))
	if !base.ctr.Any() {
		t.Fatal("plan injected no faults; test is vacuous")
	}
	for _, workers := range []int{2, 4, runtime.GOMAXPROCS(0)} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			got := runFlood(workers, 5, WithFaults(plan))
			if got.ctr != base.ctr {
				t.Fatalf("fault counters differ from workers=1: %+v vs %+v", got.ctr, base.ctr)
			}
			if !reflect.DeepEqual(got, base) {
				t.Fatal("observable run state differs from workers=1 under the same fault plan")
			}
		})
	}
}

// TestFaultSameSeedSameRun: equal seeds reproduce the exact fault pattern;
// a different seed produces a different one.
func TestFaultSameSeedSameRun(t *testing.T) {
	mk := func(seed uint64) floodResult {
		return runFlood(4, 5, WithFaults(&faults.Plan{Seed: seed, Drop: 0.2, Delay: 1, Duplicate: 0.1}))
	}
	a, b, c := mk(1), mk(1), mk(2)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("equal fault seeds must reproduce identical runs")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different fault seeds produced identical runs (suspicious)")
	}
}

// twoVertexRun sends `count` one-word messages 0→1 and returns the receive
// log and the simulator.
func twoVertexRun(t *testing.T, count, maxRounds int, opts ...Option) ([]rcvd, *Simulator) {
	t.Helper()
	g := graph.Path(2, graph.UnitWeights, rand.New(rand.NewSource(1)))
	s := New(g, opts...)
	var log []rcvd
	s.Run([]int{0}, maxRounds, func(v int, ctx *Ctx) {
		for _, m := range ctx.In() {
			log = append(log, rcvd{Round: ctx.Round(), From: m.From, Words: m.Words, Payload: m.Payload})
		}
		if v == 0 && ctx.Round() == 0 {
			for i := 0; i < count; i++ {
				ctx.Send(1, Payload{W0: uint64(i)}, 1)
			}
		}
	})
	return log, s
}

// TestFaultDropRetriesDeliver: with drop well below certainty and the
// default budget, every message still arrives (in FIFO order), at the cost
// of extra rounds and counted retransmissions.
func TestFaultDropRetriesDeliver(t *testing.T) {
	const count = 40
	clean, _ := twoVertexRun(t, count, 1000)
	faulty, s := twoVertexRun(t, count, 1000, WithFaults(&faults.Plan{Seed: 5, Drop: 0.4}))
	if len(clean) != count || len(faulty) != count {
		t.Fatalf("deliveries: clean %d, faulty %d, want %d", len(clean), len(faulty), count)
	}
	for i := range faulty {
		if faulty[i].Payload.W0 != clean[i].Payload.W0 {
			t.Fatalf("message %d out of order under drops: %v vs %v", i, faulty[i].Payload, clean[i].Payload)
		}
	}
	ctr := s.FaultCounters()
	if ctr.Dropped == 0 || ctr.Retried == 0 {
		t.Fatalf("drop=0.4 over %d messages fired no drops: %+v", count, ctr)
	}
	if ctr.Lost != 0 {
		t.Fatalf("default budget must make loss (p=0.4^9) unobservable here: %+v", ctr)
	}
	if ctr.Dropped != ctr.Retried+ctr.Lost {
		t.Fatalf("counter invariant Dropped == Retried + Lost violated: %+v", ctr)
	}
	if faulty[len(faulty)-1].Round <= clean[len(clean)-1].Round {
		t.Fatal("retransmissions must delay completion")
	}
}

// TestFaultDropBudgetExhaustion: with certain drop and no retries, every
// message is Lost and nothing is delivered.
func TestFaultDropBudgetExhaustion(t *testing.T) {
	log, s := twoVertexRun(t, 10, 1000, WithFaults(&faults.Plan{Drop: 1, RetryBudget: -1}))
	if len(log) != 0 {
		t.Fatalf("drop=1 with no retries delivered %d messages", len(log))
	}
	ctr := s.FaultCounters()
	if ctr.Lost != 10 || ctr.Retried != 0 || ctr.Dropped != 10 {
		t.Fatalf("counters = %+v, want 10 lost, 10 dropped, 0 retried", ctr)
	}

	log, s = twoVertexRun(t, 10, 1000, WithFaults(&faults.Plan{Drop: 1, RetryBudget: 2}))
	if len(log) != 0 {
		t.Fatalf("drop=1 delivered %d messages", len(log))
	}
	ctr = s.FaultCounters()
	if ctr.Lost != 10 || ctr.Retried != 20 || ctr.Dropped != 30 {
		t.Fatalf("counters = %+v, want lost 10, retried 20, dropped 30", ctr)
	}
}

// TestFaultDelay: a single message with Delay=d arrives exactly DelayRounds
// later than clean, FIFO order preserved.
func TestFaultDelay(t *testing.T) {
	const count = 20
	clean, _ := twoVertexRun(t, count, 1000)
	faulty, s := twoVertexRun(t, count, 1000, WithFaults(&faults.Plan{Seed: 3, Delay: 4}))
	ctr := s.FaultCounters()
	if ctr.DelayRounds == 0 {
		t.Fatal("delay=4 over 20 messages injected no delay")
	}
	if len(faulty) != count {
		t.Fatalf("delivered %d, want %d", len(faulty), count)
	}
	for i := range faulty {
		if faulty[i].Payload.W0 != clean[i].Payload.W0 {
			t.Fatalf("message %d out of order under delays", i)
		}
	}
	// Head-of-line delays push completion later, but a delay round consumed
	// while the batch budget was already spent overlaps with normal pacing,
	// so the shift is bounded by — not equal to — the injected total.
	last, cleanLast := faulty[count-1].Round, clean[count-1].Round
	if last <= cleanLast || last > cleanLast+int(ctr.DelayRounds) {
		t.Fatalf("last delivery at round %d, want in (%d, %d]",
			last, cleanLast, cleanLast+int(ctr.DelayRounds))
	}
}

// TestFaultDelayExactSingleMessage: with one message on an idle edge there
// is nothing to overlap with, so the arrival shifts by exactly the rolled
// delay.
func TestFaultDelayExactSingleMessage(t *testing.T) {
	clean, _ := twoVertexRun(t, 1, 1000)
	faulty, s := twoVertexRun(t, 1, 1000, WithFaults(&faults.Plan{Seed: 1, Delay: 6}))
	ctr := s.FaultCounters()
	if len(clean) != 1 || len(faulty) != 1 {
		t.Fatalf("deliveries: clean %d, faulty %d, want 1 each", len(clean), len(faulty))
	}
	if want := clean[0].Round + int(ctr.DelayRounds); faulty[0].Round != want {
		t.Fatalf("arrival at round %d, want %d (clean %d + rolled delay %d)",
			faulty[0].Round, want, clean[0].Round, ctr.DelayRounds)
	}
}

// TestFaultDuplicate: certain duplication delivers every message exactly
// twice, back to back; handlers see both copies.
func TestFaultDuplicate(t *testing.T) {
	const count = 5
	log, s := twoVertexRun(t, count, 1000, WithFaults(&faults.Plan{Duplicate: 1}))
	if len(log) != 2*count {
		t.Fatalf("delivered %d messages, want %d (every one duplicated)", len(log), 2*count)
	}
	for i := 0; i < count; i++ {
		if log[2*i].Payload.W0 != log[2*i+1].Payload.W0 {
			t.Fatalf("duplicate %d not adjacent to original", i)
		}
	}
	if ctr := s.FaultCounters(); ctr.Duplicated != count {
		t.Fatalf("Duplicated = %d, want %d", ctr.Duplicated, count)
	}
	if s.Messages() != 2*count {
		t.Fatalf("global message counter %d, want %d", s.Messages(), 2*count)
	}
}

// TestFaultDuplicateExt: duplicated Ext payloads must ride distinct arena
// chunks (each is recycled exactly once) and carry equal contents.
func TestFaultDuplicateExt(t *testing.T) {
	g := graph.Path(2, graph.UnitWeights, rand.New(rand.NewSource(1)))
	s := New(g, WithFaults(&faults.Plan{Duplicate: 1}), WithEdgeCapacity(0))
	var got [][]uint64
	s.Run([]int{0}, 100, func(v int, ctx *Ctx) {
		if v == 0 && ctx.Round() == 0 {
			ext := ctx.Ext(3)
			ext[0], ext[1], ext[2] = 7, 8, 9
			ctx.Send(1, Payload{Kind: 1, Ext: ext}, 4)
		}
		for _, m := range ctx.In() {
			got = append(got, append([]uint64(nil), m.Payload.Ext...))
		}
	})
	if len(got) != 2 {
		t.Fatalf("delivered %d copies, want 2", len(got))
	}
	want := []uint64{7, 8, 9}
	for i, ext := range got {
		if !reflect.DeepEqual(ext, want) {
			t.Fatalf("copy %d Ext = %v, want %v", i, ext, want)
		}
	}
}

// TestFaultCrashForever: a permanently crashed vertex never executes, and
// traffic to it is discarded (no spin until maxRounds).
func TestFaultCrashForever(t *testing.T) {
	g := graph.Path(3, graph.UnitWeights, rand.New(rand.NewSource(1)))
	s := New(g, WithFaults(&faults.Plan{Crashes: []faults.Crash{{Vertex: 1}}}))
	stepped := make([]int, 3)
	executed := s.Run([]int{0, 1, 2}, 1000, func(v int, ctx *Ctx) {
		stepped[v]++
		if ctx.Round() == 0 {
			for _, nb := range g.Neighbors(v) {
				ctx.Send(nb.To, Payload{W0: IntWord(v)}, 1)
			}
		}
	})
	if stepped[1] != 0 {
		t.Fatalf("crashed vertex executed %d times", stepped[1])
	}
	if stepped[0] == 0 || stepped[2] == 0 {
		t.Fatal("live vertices must execute")
	}
	if executed >= 1000 {
		t.Fatal("run spun to maxRounds: traffic to a forever-crashed vertex must be discarded")
	}
	if ctr := s.FaultCounters(); ctr.Discarded != 2 {
		t.Fatalf("Discarded = %d, want 2 (one message from each neighbor)", ctr.Discarded)
	}
}

// TestFaultCrashRecover: traffic to a vertex in a finite crash window is
// held, not lost, and delivered after recovery.
func TestFaultCrashRecover(t *testing.T) {
	g := graph.Path(2, graph.UnitWeights, rand.New(rand.NewSource(1)))
	// Vertex 1 is down for global rounds [1, 6): the message sent in round 0
	// (arriving at round 1) must wait for recovery.
	s := New(g, WithFaults(&faults.Plan{Crashes: []faults.Crash{{Vertex: 1, From: 1, Until: 6}}}))
	var log []rcvd
	s.Run([]int{0}, 1000, func(v int, ctx *Ctx) {
		for _, m := range ctx.In() {
			log = append(log, rcvd{Round: ctx.Round(), From: m.From, Words: m.Words, Payload: m.Payload})
		}
		if v == 0 && ctx.Round() == 0 {
			ctx.Send(1, Payload{W0: 42}, 1)
		}
	})
	if len(log) != 1 {
		t.Fatalf("delivered %d messages, want 1 (held through the crash window)", len(log))
	}
	if log[0].Round != 6 {
		t.Fatalf("held message arrived at round %d, want 6 (first round after recovery)", log[0].Round)
	}
	if ctr := s.FaultCounters(); ctr.Discarded != 0 || ctr.Lost != 0 {
		t.Fatalf("finite crash window must not lose messages: %+v", ctr)
	}
}

// TestFaultPartition: a permanent partition discards cross-boundary traffic
// but leaves same-side traffic untouched.
func TestFaultPartition(t *testing.T) {
	g := graph.Path(3, graph.UnitWeights, rand.New(rand.NewSource(1))) // 0-1-2
	s := New(g, WithFaults(&faults.Plan{Partitions: []faults.Partition{{Members: []int{0}}}}))
	var log []rcvd
	s.Run([]int{0, 1}, 1000, func(v int, ctx *Ctx) {
		for _, m := range ctx.In() {
			log = append(log, rcvd{Round: ctx.Round(), From: m.From, Words: m.Words, Payload: m.Payload})
		}
		if ctx.Round() == 0 {
			for _, nb := range g.Neighbors(v) {
				ctx.Send(nb.To, Payload{W0: IntWord(v)}, 1)
			}
		}
	})
	// 0→1 and 1→0 cross the cut and are discarded; 1→2 survives.
	if len(log) != 1 || log[0].From != 1 {
		t.Fatalf("deliveries = %+v, want exactly the same-side message 1→2", log)
	}
	if ctr := s.FaultCounters(); ctr.Discarded != 2 {
		t.Fatalf("Discarded = %d, want 2", ctr.Discarded)
	}
}

// TestFaultPartitionHeals: a finite partition window holds traffic and
// releases it when the window closes.
func TestFaultPartitionHeals(t *testing.T) {
	g := graph.Path(2, graph.UnitWeights, rand.New(rand.NewSource(1)))
	s := New(g, WithFaults(&faults.Plan{Partitions: []faults.Partition{{Members: []int{0}, From: 0, Until: 4}}}))
	var log []rcvd
	s.Run([]int{0}, 1000, func(v int, ctx *Ctx) {
		for _, m := range ctx.In() {
			log = append(log, rcvd{Round: ctx.Round(), From: m.From, Words: m.Words, Payload: m.Payload})
		}
		if v == 0 && ctx.Round() == 0 {
			ctx.Send(1, Payload{W0: 7}, 1)
		}
	})
	if len(log) != 1 {
		t.Fatalf("delivered %d messages, want 1 after the partition heals", len(log))
	}
	if log[0].Round != 4 {
		t.Fatalf("delivery at round %d, want 4 (first round past the window)", log[0].Round)
	}
}

// TestBroadcastFaultRetry: broadcast deliveries retry within the budget (all
// handlers still run, extra rounds and wire charged); with certain drop and
// a tiny budget, deliveries are Lost and the handler is skipped.
func TestBroadcastFaultRetry(t *testing.T) {
	g := graph.Torus(4, 4, graph.UnitWeights, rand.New(rand.NewSource(2)))

	clean := New(g)
	var cleanCalls int
	clean.Broadcast([]BroadcastMsg{{Origin: 0, Words: 2}, {Origin: 3, Words: 2}},
		func(v int, m *BroadcastMsg) { cleanCalls++ })

	s := New(g, WithFaults(&faults.Plan{Seed: 8, Drop: 0.3}))
	var calls int
	s.Broadcast([]BroadcastMsg{{Origin: 0, Words: 2}, {Origin: 3, Words: 2}},
		func(v int, m *BroadcastMsg) { calls++ })
	if calls != cleanCalls {
		t.Fatalf("faulty broadcast ran %d handlers, clean ran %d", calls, cleanCalls)
	}
	ctr := s.FaultCounters()
	if ctr.Dropped == 0 || ctr.Retried != ctr.Dropped {
		t.Fatalf("drop=0.3 broadcast: %+v (want drops, all retried)", ctr)
	}
	if s.Rounds() <= clean.Rounds() {
		t.Fatalf("faulty broadcast rounds %d not above clean %d", s.Rounds(), clean.Rounds())
	}
	if s.Messages() <= clean.Messages() {
		t.Fatalf("faulty broadcast messages %d not above clean %d", s.Messages(), clean.Messages())
	}

	s = New(g, WithFaults(&faults.Plan{Drop: 1, RetryBudget: 1}))
	calls = 0
	s.Broadcast([]BroadcastMsg{{Origin: 0, Words: 2}}, func(v int, m *BroadcastMsg) { calls++ })
	if calls != 1 {
		t.Fatalf("drop=1 broadcast ran %d handlers, want 1 (only the origin's own copy)", calls)
	}
	if ctr := s.FaultCounters(); ctr.Lost != int64(g.N()-1) {
		t.Fatalf("Lost = %d, want %d", ctr.Lost, g.N()-1)
	}
}

// TestConvergecastFaultRetry mirrors the broadcast test for the sink side.
func TestConvergecastFaultRetry(t *testing.T) {
	g := graph.Torus(4, 4, graph.UnitWeights, rand.New(rand.NewSource(2)))
	msgs := make([]BroadcastMsg, g.N())
	for v := range msgs {
		msgs[v] = BroadcastMsg{Origin: v, Words: 1}
	}

	s := New(g, WithFaults(&faults.Plan{Seed: 4, Drop: 0.3}))
	var got int
	s.Convergecast(0, msgs, func(m *BroadcastMsg) { got++ })
	if got != g.N() {
		t.Fatalf("sink learned %d messages, want %d", got, g.N())
	}
	if ctr := s.FaultCounters(); ctr.Dropped == 0 || ctr.Lost != 0 {
		t.Fatalf("drop=0.3 convergecast: %+v", ctr)
	}

	// Crashed sink learns nothing.
	s = New(g, WithFaults(&faults.Plan{Crashes: []faults.Crash{{Vertex: 0}}}))
	got = 0
	s.Convergecast(0, msgs, func(m *BroadcastMsg) { got++ })
	if got != 0 {
		t.Fatalf("crashed sink learned %d messages", got)
	}
	if ctr := s.FaultCounters(); ctr.Discarded != int64(g.N()) {
		t.Fatalf("Discarded = %d, want %d", ctr.Discarded, g.N())
	}
}
