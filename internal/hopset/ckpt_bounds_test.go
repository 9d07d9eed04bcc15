package hopset

import (
	"math/rand"
	"runtime"
	"testing"

	"lowmemroute/internal/congest"
	"lowmemroute/internal/graph"
)

// TestExplorerRestoreBoundsCounts plants a 2^20 count in an explorer
// section — the non-empty vertex count, then one vertex's entry count.
// Restore must return an error and allocate under 1 MiB: counts are bounded
// by the words the section has, not trusted.
func TestExplorerRestoreBoundsCounts(t *testing.T) {
	const huge = 1 << 20
	g := graph.Path(8, graph.UnitWeights, rand.New(rand.NewSource(1)))
	for _, tc := range []struct {
		name    string
		section []uint64
	}{
		{"vertices", []uint64{8, huge, 0, 0}},
		{"entries", []uint64{8, 1, 3, huge, 0, 0, 0, 0, 0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewExplorer(congest.New(g))
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := e.RestoreCkpt(tc.section)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatal("a section with a 2^20 count restored without error")
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
				t.Fatalf("restore allocated %d bytes for a %d-word section", alloc, len(tc.section))
			}
		})
	}
}
