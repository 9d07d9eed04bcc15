package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"strconv"

	"lowmemroute/internal/clusterroute"
	"lowmemroute/internal/congest"
)

// ledger counts the operations a run attempted and those that failed or
// were wrong: builds, resumes, lookups, walks and the run's own checks.
type ledger struct {
	attempted, failed int64
	notes             []string
}

// maxNotes caps the failure messages a run keeps for its record.
const maxNotes = 16

// ok records one attempted operation, failed unless pass, and returns pass.
func (l *ledger) ok(pass bool, format string, args ...any) bool {
	l.attempted++
	if !pass {
		l.fail(1, format, args...)
	}
	return pass
}

// fail records n failed operations already counted as attempted.
func (l *ledger) fail(n int64, format string, args ...any) {
	l.failed += n
	if len(l.notes) < maxNotes {
		l.notes = append(l.notes, fmt.Sprintf(format, args...))
	}
}

// counts are the simulation's exact results: deterministic for an instance
// at any shard count, so every build of one instance must repeat them, and
// the run's first instance must match the golden for its seed.
type counts struct {
	Rounds        int64   `json:"congest.rounds"`
	Messages      int64   `json:"congest.messages"`
	Words         int64   `json:"congest.words"`
	PeakMem       int64   `json:"congest.peak_mem_words"`
	MaxTableWords int     `json:"clusterroute.max_table_words"`
	MaxLabelWords int     `json:"clusterroute.max_label_words"`
	StretchMax    float64 `json:"clusterroute.stretch_max"`
}

func countsOf(sim *congest.Simulator, s *clusterroute.Scheme) counts {
	return counts{
		Rounds: sim.Rounds(), Messages: sim.Messages(), Words: sim.Words(), PeakMem: sim.PeakMemory(),
		MaxTableWords: s.MaxTableWords(), MaxLabelWords: s.MaxLabelWords(),
	}
}

func (c counts) into(m metricSet) {
	m["congest.rounds"] = float64(c.Rounds)
	m["congest.messages"] = float64(c.Messages)
	m["congest.words"] = float64(c.Words)
	m["congest.peak_mem_words"] = float64(c.PeakMem)
	m["clusterroute.max_table_words"] = float64(c.MaxTableWords)
	m["clusterroute.max_label_words"] = float64(c.MaxLabelWords)
	m["clusterroute.stretch_max"] = c.StretchMax
}

// goldenTable holds the exact counts recorded per workload and seed.
type goldenTable map[string]map[string]counts

//go:embed goldens.json
var goldensJSON []byte

func loadGoldens() (goldenTable, error) {
	var g goldenTable
	if err := json.Unmarshal(goldensJSON, &g); err != nil {
		return nil, fmt.Errorf("goldens.json: %w", err)
	}
	return g, nil
}

// checkGolden compares the run's exact counts with the golden recorded for
// its workload and seed, if any; a seed without one is checked only for
// self-consistency.
func (r *runner) checkGolden(got counts) {
	want, ok := r.goldens[r.w.Name][strconv.FormatInt(r.seed, 10)]
	if !ok {
		return
	}
	r.checks.ok(got == want, "exact counts %+v differ from the golden %+v", got, want)
}
