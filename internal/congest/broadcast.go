package congest

import (
	"sort"

	"lowmemroute/internal/faults"
	"lowmemroute/internal/trace"
)

// BroadcastMsg is a message disseminated to every vertex via the BFS tree of
// the communication graph (Lemma 1 in the paper). Unlike point-to-point
// messages, a broadcast payload's Ext tail stays caller-owned: the analytic
// primitives deliver the caller's values directly and never touch the
// payload arena, so the slice must stay valid for the duration of the call.
type BroadcastMsg struct {
	Origin  int
	Payload Payload
	Words   int
}

// Broadcast delivers every message to every vertex, invoking handle once per
// (vertex, message) pair in deterministic order (vertices ascending; for
// each vertex, messages in origin order as given). The message is passed by
// pointer to keep the n*M handler calls copy-free; the handler must treat it
// as read-only and streaming - anything it wants to keep it must charge to
// the vertex's meter itself, as the engine only spikes the meter by the size
// of a single in-flight message, which is exactly the guarantee the
// pipelined broadcast of Lemma 1 provides.
//
// Cost charged (Lemma 1): rounds = M + 2D for M messages; every message
// traverses every BFS-tree edge, so messages += M*(n-1).
//
// Under a fault plan every (vertex, message) delivery rolls drops on the
// stream keyed by (v, msg index), retransmitting up to the plan's budget
// before the message is counted Lost and the handler skipped for that
// vertex. The pipelined tree absorbs retransmissions in parallel, so the
// round cost grows by the worst per-delivery attempt count, while every
// failed transmission is charged wire cost individually (the paper's bounds
// are measured under faults, not just in the clean run). Crashed vertices
// receive nothing, crashed origins reach no one, and partitions sever
// origin→vertex pairs; the clock is the current global round, so windows
// opened by earlier Run phases apply here too.
func (s *Simulator) Broadcast(msgs []BroadcastMsg, handle func(v int, m *BroadcastMsg)) {
	if s.resumePending {
		panic("congest: mid-run checkpoint resume pending; the next simulator primitive must be Run")
	}
	if len(msgs) == 0 {
		return
	}
	if s.obs != nil {
		defer s.obsSyncAll()
	}
	f := s.ensureFaults()
	n := s.N()
	clock := s.rounds
	var t faultTally
	if handle != nil || f != nil {
		for v := 0; v < n; v++ {
			for j := range msgs {
				m := &msgs[j]
				w := msgWords(m)
				if f != nil && !s.deliverFaulty(f, &t, m.Origin, v, j, w, clock) {
					continue
				}
				if handle != nil {
					s.meters[v].Spike(w)
					handle(v, m)
				}
			}
		}
	}
	s.chargePrimitive(trace.KindBroadcast, msgs, int64(n-1), n, &t)
}

// Convergecast aggregates M messages (one per origin) up the BFS tree to a
// sink that then learns all of them; it has the same O(M + D) pipelined cost
// as Broadcast. handle is invoked at the sink for every message, in origin
// order, with the same read-only pointer contract as Broadcast. Each
// message is charged D hops.
//
// Under a fault plan it mirrors Broadcast in the aggregation direction:
// per-message drop rolls keyed on (sink, origin-order index), bounded
// retransmission, crash and partition checks between each origin and the
// sink. A crashed sink learns nothing (every message is Discarded).
func (s *Simulator) Convergecast(sink int, msgs []BroadcastMsg, handle func(m *BroadcastMsg)) {
	if s.resumePending {
		panic("congest: mid-run checkpoint resume pending; the next simulator primitive must be Run")
	}
	if len(msgs) == 0 {
		return
	}
	if s.obs != nil {
		defer s.obsSyncAll()
	}
	sorted := append([]BroadcastMsg(nil), msgs...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Origin < sorted[j].Origin })
	f := s.ensureFaults()
	clock := s.rounds
	var t faultTally
	if handle != nil || f != nil {
		for j := range sorted {
			m := &sorted[j]
			w := msgWords(m)
			if f != nil && !s.deliverFaulty(f, &t, m.Origin, sink, j, w, clock) {
				continue
			}
			if handle != nil {
				s.meters[sink].Spike(w)
				handle(m)
			}
		}
	}
	s.chargePrimitive(trace.KindConvergecast, sorted, int64(s.d), len(sorted), &t)
}

// msgWords is a broadcast message's wire size: at least one word.
func msgWords(m *BroadcastMsg) int64 { return int64(max(m.Words, 1)) }

// faultTally accumulates what a fault plan did to one analytic primitive.
type faultTally struct {
	ctr                   faults.Counters
	extraMsgs, extraWords int64 // retransmission cost
	maxExtra              int   // worst per-delivery retransmission count
}

// deliverFaulty decides whether message j (origin → dst, w words) of an
// analytic primitive reaches dst under plan f at global round clock,
// tallying discards, drops and retransmissions into t. Each
// retransmission re-buffers the message at dst, spiking its meter.
func (s *Simulator) deliverFaulty(f *faults.Compiled, t *faultTally, origin, dst, j int, w, clock int64) bool {
	if down, _ := f.Crashed(dst, clock); down {
		t.ctr.Discarded++
		return false
	}
	if down, _ := f.Crashed(origin, clock); down {
		t.ctr.Discarded++
		return false
	}
	if origin == dst {
		return true
	}
	if cut, _ := f.CutPair(origin, dst, clock); cut {
		t.ctr.Discarded++
		return false
	}
	attempt := 0
	for f.BroadcastDrop(dst, j, attempt) {
		t.ctr.Dropped++
		t.ctr.RetryWords += w
		t.extraMsgs++
		t.extraWords += w
		if attempt >= f.Budget() {
			t.ctr.Lost++
			return false
		}
		attempt++
	}
	t.ctr.Retried += int64(attempt)
	t.maxExtra = max(t.maxExtra, attempt)
	for a := 0; a < attempt; a++ {
		s.meters[dst].Spike(w)
	}
	return true
}

// chargePrimitive charges an analytic primitive's cost: M + 2D rounds plus
// the worst retransmission count, every message over hops tree edges plus
// the retransmissions, and one trace sample covering active vertices.
func (s *Simulator) chargePrimitive(kind string, msgs []BroadcastMsg, hops int64, active int, t *faultTally) {
	var totalWords int64
	for j := range msgs {
		totalWords += msgWords(&msgs[j])
	}
	rounds := int64(len(msgs)) + 2*int64(s.d) + int64(t.maxExtra)
	messages := int64(len(msgs))*hops + t.extraMsgs
	words := totalWords*hops + t.extraWords
	s.rounds += rounds
	s.messages += messages
	s.words += words
	s.faultCtr.Add(t.ctr)
	if s.tracer != nil {
		s.emitSample(s.rounds, kind, rounds, active, messages, words, t.ctr)
	}
}
