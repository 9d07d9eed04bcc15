package treeroute

import (
	"math/rand"
	"runtime"
	"testing"

	"lowmemroute/internal/graph"
)

// TestBuilderRestoreBoundsCounts plants a 2^20 row length in a builder
// section — an ancestor list, then a light-edge list. Restore must return
// an error and allocate under 1 MiB: row lengths are bounded by the words
// the section has, not trusted.
func TestBuilderRestoreBoundsCounts(t *testing.T) {
	tr, err := graph.NewTree(0, []int{graph.NoVertex, 0, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b := &distBuilder{ts: []*treeState{newTreeState(0, tr, 0.5, 4, rng)}}
	good := b.AppendCkpt(nil)
	if err := b.RestoreCkpt(good); err != nil {
		t.Fatalf("restoring the genuine section: %v", err)
	}
	// Layout: version, tree count, member count, seven member arrays, then
	// the ancestor rows and the local light-edge rows (all nil when fresh).
	m := tr.Size()
	ancAt := 3 + 7*m
	lightAt := ancAt + m
	for _, tc := range []struct {
		name string
		at   int
	}{{"ancestors", ancAt}, {"light-edges", lightAt}} {
		t.Run(tc.name, func(t *testing.T) {
			section := append([]uint64(nil), good...)
			if section[tc.at] != 0 {
				t.Fatalf("word %d is %d, want a nil row", tc.at, section[tc.at])
			}
			section[tc.at] = 1<<20 + 1 // a row of 2^20 elements
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := b.RestoreCkpt(section)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatal("a section with a 2^20 row restored without error")
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
				t.Fatalf("restore allocated %d bytes for a %d-word section", alloc, len(section))
			}
		})
	}
}
