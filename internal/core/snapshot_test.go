package core

// End-to-end checkpoint/resume over the full construction: a build
// checkpointed at every tree-routing phase boundary must be resumable from
// EVERY cut point, and the resumed scheme — tables, labels, cluster trees,
// stats including PhaseRounds — must be deeply equal to an uninterrupted
// build, with identical engine counters and per-vertex meter peaks. The
// pre-tree phases (sampling, pivots, hopset, cluster growth) replay
// deterministically from Options.Seed on resume; the engine restore then
// sets the absolute round/message counters, so even the "tree-routing"
// PhaseRounds delta matches the straight build exactly.

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"lowmemroute/internal/congest"
	"lowmemroute/internal/graph"
)

type coreSnap struct {
	rounds, messages, words int64
	peaks                   []int64
	scheme                  *Scheme
}

func TestBuildCheckpointResumeEveryCut(t *testing.T) {
	const (
		n    = 100
		k    = 3
		seed = 42
	)
	build := func(workers int, ck *congest.Checkpointer) (coreSnap, error) {
		g, err := graph.Generate(graph.FamilyErdosRenyi, n, rand.New(rand.NewSource(7)))
		if err != nil {
			t.Fatal(err)
		}
		sim := congest.New(g, congest.WithSeed(seed), congest.WithShards(workers))
		s, err := Build(sim, Options{K: k, Seed: seed, Epsilon: 0.01, Ckpt: ck})
		if err != nil {
			return coreSnap{}, err
		}
		if err := ck.Err(); err != nil {
			return coreSnap{}, err
		}
		snap := coreSnap{rounds: sim.Rounds(), messages: sim.Messages(), words: sim.Words(), scheme: s}
		for v := 0; v < n; v++ {
			snap.peaks = append(snap.peaks, sim.Mem(v).Peak())
		}
		return snap, nil
	}
	requireEqual := func(t *testing.T, got, want coreSnap, label string) {
		t.Helper()
		if got.rounds != want.rounds || got.messages != want.messages || got.words != want.words {
			t.Fatalf("%s: counters differ: rounds %d vs %d, messages %d vs %d, words %d vs %d",
				label, got.rounds, want.rounds, got.messages, want.messages, got.words, want.words)
		}
		if !reflect.DeepEqual(got.peaks, want.peaks) {
			t.Fatalf("%s: per-vertex meter peaks differ", label)
		}
		if !reflect.DeepEqual(got.scheme.Stats, want.scheme.Stats) {
			t.Fatalf("%s: stats differ:\n got %+v\nwant %+v", label, got.scheme.Stats, want.scheme.Stats)
		}
		if !reflect.DeepEqual(got.scheme, want.scheme) {
			t.Fatalf("%s: schemes differ", label)
		}
	}

	ref, err := build(1, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Full build under a checkpointer, copying the live snapshot aside after
	// every completed tree-routing unit.
	dir := t.TempDir()
	live := filepath.Join(dir, "build.ckpt")
	ck := congest.NewCheckpointer(live, 0)
	setMeta := func(t *testing.T, ck *congest.Checkpointer, family string) {
		t.Helper()
		for _, kv := range [][2]string{{"family", family}, {"n", fmt.Sprint(n)}, {"k", fmt.Sprint(k)}} {
			if err := ck.SetMeta(kv[0], kv[1]); err != nil {
				t.Fatalf("SetMeta(%s): %v", kv[0], err)
			}
		}
	}
	setMeta(t, ck, "er")
	var cuts, units []string
	ck.SetOnMark(func(unit string, step int64) {
		raw, err := os.ReadFile(live)
		if err != nil {
			t.Errorf("read checkpoint after %s: %v", unit, err)
			return
		}
		cut := filepath.Join(dir, fmt.Sprintf("cut-%02d.ckpt", step))
		if err := os.WriteFile(cut, raw, 0o644); err != nil {
			t.Errorf("copy checkpoint after %s: %v", unit, err)
			return
		}
		cuts = append(cuts, cut)
		units = append(units, unit)
	})
	full, err := build(1, ck)
	if err != nil {
		t.Fatal(err)
	}
	requireEqual(t, full, ref, "checkpointed build") // checkpointing must not perturb the build
	if len(cuts) != 10 {
		t.Fatalf("recorded %d cut points, want 10 (units: %v)", len(cuts), units)
	}

	// Resume from every cut; the resumed worker width need not match the
	// interrupted run's (the snapshot is canonical), so alternate widths.
	for i, cut := range cuts {
		workers := 1
		if i%2 == 1 {
			workers = 4
		}
		t.Run(fmt.Sprintf("%s/workers=%d", units[i], workers), func(t *testing.T) {
			ckr, err := congest.ResumeCheckpointer(cut, 0)
			if err != nil {
				t.Fatal(err)
			}
			setMeta(t, ckr, "er")
			got, err := build(workers, ckr)
			if err != nil {
				t.Fatal(err)
			}
			requireEqual(t, got, ref, "resumed build")
		})
	}

	// A stale-metadata resume must fail before touching the engine: the
	// checkpoint records the run parameters it belongs to.
	t.Run("meta-mismatch", func(t *testing.T) {
		ckr, err := congest.ResumeCheckpointer(cuts[0], 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := ckr.SetMeta("family", "grid"); err == nil {
			t.Fatal("SetMeta accepted a family mismatch against the resumed checkpoint")
		}
	})
}
