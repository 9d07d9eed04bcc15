package congest

import "lowmemroute/internal/obs"

// obsHooks is the simulator's connection to a live metrics registry
// (WithMetrics): the metric pointers, fetched once at wiring time, plus
// the last-published counter totals so every sync point adds a
// non-negative delta. Deltas keep the exported counters monotone even
// when several simulators share one registry (Prometheus counter
// semantics), and let a registry attach to a simulator mid-life.
//
// Metrics are strictly observational: hooks touch only these pointers and
// the engine pays one nil check per round, so a simulator without a
// registry behaves — and allocates — exactly as before.
type obsHooks struct {
	reg *obs.Registry

	rounds   *obs.Counter
	messages *obs.Counter
	words    *obs.Counter

	queueDepth  *obs.Gauge // destinations with backlogged incoming edges
	active      *obs.Gauge // vertices that executed in the last round
	meterHigh   *obs.Gauge // high-water per-vertex memory meter (words)
	arenaChunks *obs.Gauge // payload-arena free chunks after a run
	arenaWords  *obs.Gauge // capacity words parked in the arena free lists

	lastRounds   int64
	lastMessages int64
	lastWords    int64
}

// WithMetrics exports the simulator's live state into reg: monotone
// rounds/messages/words counters and queue-depth, active-vertex,
// meter-high-water, and arena-occupancy gauges. A nil registry is a no-op
// option.
func WithMetrics(reg *obs.Registry) Option {
	return func(s *Simulator) {
		if reg == nil {
			return
		}
		reg.SetHelp("congest_rounds_total", "Simulated CONGEST rounds executed (including analytically charged primitives).")
		reg.SetHelp("congest_messages_total", "Messages delivered by the simulator.")
		reg.SetHelp("congest_words_total", "O(log n)-bit words delivered by the simulator.")
		reg.SetHelp("congest_queue_depth", "Destinations with backlogged incoming edge queues after the last round.")
		reg.SetHelp("congest_active_vertices", "Vertices that executed in the last simulated round.")
		reg.SetHelp("congest_meter_peak_words", "High-water per-vertex memory meter level, in words.")
		reg.SetHelp("congest_arena_free_chunks", "Payload-arena chunks parked on free lists after the last run.")
		reg.SetHelp("congest_arena_free_words", "Capacity words parked on the payload-arena free lists after the last run.")
		s.obs = &obsHooks{
			reg:         reg,
			rounds:      reg.Counter("congest_rounds_total"),
			messages:    reg.Counter("congest_messages_total"),
			words:       reg.Counter("congest_words_total"),
			queueDepth:  reg.Gauge("congest_queue_depth"),
			active:      reg.Gauge("congest_active_vertices"),
			meterHigh:   reg.Gauge("congest_meter_peak_words"),
			arenaChunks: reg.Gauge("congest_arena_free_chunks"),
			arenaWords:  reg.Gauge("congest_arena_free_words"),
		}
	}
}

// Registry returns the metrics registry the simulator exports into, or nil
// without WithMetrics. Layers that run on the simulator (core's phase
// progress) publish to it, so one registry reaches a whole build.
func (s *Simulator) Registry() *obs.Registry {
	if s.obs == nil {
		return nil
	}
	return s.obs.reg
}

// obsSync publishes counter totals as of the given effective values
// (mid-Run the simulator's own rounds field lags the executed count, so
// the engine passes the live total). Callers guard s.obs != nil.
func (s *Simulator) obsSync(rounds, messages, words int64) {
	o := s.obs
	if d := rounds - o.lastRounds; d > 0 {
		o.rounds.Add(d)
		o.lastRounds = rounds
	}
	if d := messages - o.lastMessages; d > 0 {
		o.messages.Add(d)
		o.lastMessages = messages
	}
	if d := words - o.lastWords; d > 0 {
		o.words.Add(d)
		o.lastWords = words
	}
}

// obsSyncAll publishes the simulator's committed totals; safe to call from
// any accounting site (AddRounds, broadcast, convergecast, end of Run).
func (s *Simulator) obsSyncAll() {
	if s.obs == nil {
		return
	}
	s.obsSync(s.rounds, s.messages, s.words)
}

// obsRunEnd publishes the end-of-run gauges that are too expensive (O(n)
// meter scan, arena walk under its lock) to refresh every round.
func (s *Simulator) obsRunEnd() {
	o := s.obs
	if o == nil {
		return
	}
	s.obsSyncAll()
	o.meterHigh.SetMax(s.PeakMemory())
	chunks, words := s.arena.stats()
	for i := range s.shardArena {
		c, w := s.shardArena[i].stats()
		chunks += c
		words += w
	}
	o.arenaChunks.Set(chunks)
	o.arenaWords.Set(words)
}
