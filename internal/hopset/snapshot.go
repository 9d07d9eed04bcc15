package hopset

// Checkpoint support for the Explorer. An exploration's durable state is the
// per-vertex root-sorted entry lists — exactly the "clusters containing the
// vertex" working memory the paper charges — and nothing else: the step
// function is stateless given those lists, and seeding happens only in round
// 0, so a mid-Run snapshot of the lists plus the engine's own section resumes
// an interrupted Explore bit-for-bit. The Explorer therefore qualifies for
// mid-run checkpoint cadence (congest.Checkpointer.MidRun), unlike the
// tree-routing builder whose convergecast phases only snapshot at unit
// boundaries.

import (
	"fmt"

	"lowmemroute/internal/congest"
	"lowmemroute/internal/trace"
)

// ExplorerSection names the Explorer's checkpoint section.
const ExplorerSection = "hopset.explorer"

// CkptSection implements congest.CkptProvider.
func (e *Explorer) CkptSection() string { return ExplorerSection }

// AppendCkpt serialises the per-vertex entry lists: vertex count, number of
// non-empty vertices, then for each (ascending) its index, entry count, and
// entries in root order — 5 words each (root, dist bits, parent, origin,
// remaining hop budget). Ascending vertex order makes the section canonical
// at every shard count.
func (e *Explorer) AppendCkpt(dst []uint64) []uint64 {
	dst = append(dst, uint64(int64(len(e.state))))
	cntAt := len(dst)
	dst = append(dst, 0)
	var nonEmpty uint64
	for v := range e.state {
		es := e.state[v]
		if len(es) == 0 {
			continue
		}
		nonEmpty++
		dst = append(dst, uint64(int64(v)), uint64(int64(len(es))))
		for i := range es {
			st := &es[i]
			dst = append(dst, uint64(int64(st.Root)), congest.FloatWord(st.Dist),
				uint64(int64(st.Parent)), uint64(int64(st.Origin)), uint64(int64(st.ttl)))
		}
	}
	dst[cntAt] = nonEmpty
	return dst
}

// RestoreCkpt rebuilds the entry lists from a section payload, replacing any
// current state.
func (e *Explorer) RestoreCkpt(words []uint64) error {
	r := trace.NewWordReader(words)
	if n := r.Int(); n != len(e.state) {
		return fmt.Errorf("hopset: explorer section is for n=%d, workspace has n=%d", n, len(e.state))
	}
	for v := range e.state {
		e.state[v] = e.state[v][:0]
	}
	nonEmpty := r.Count(2)
	for i := 0; i < nonEmpty; i++ {
		v := r.Int()
		k := r.Count(5)
		if v < 0 || v >= len(e.state) {
			return fmt.Errorf("hopset: explorer section vertex %d (%d entries) out of range", v, k)
		}
		es := e.state[v][:0]
		for j := 0; j < k; j++ {
			es = append(es, RootEntry{
				Root:  r.Int(),
				Entry: Entry{Dist: congest.WordFloat(r.Word()), Parent: r.Int(), Origin: r.Int()},
				ttl:   r.Int(),
			})
		}
		e.state[v] = es
	}
	return r.Done()
}
