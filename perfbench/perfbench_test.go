package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"lowmemroute/internal/trace"
)

// tiny returns the workloads shrunk to instances that build in well under a
// second, keeping their family, shards, checkpointing and API path.
func tiny() []workload {
	sizes := map[string]int{"build-er": 40, "serve-zipf": 32}
	out := make([]workload, len(workloads))
	for i, w := range workloads {
		w.N = sizes[w.Name]
		w.Nominal = 200 * time.Millisecond
		out[i] = w
	}
	return out
}

// runTiny runs one tiny workload for a one-second budget and returns its
// contract result and full output.
func runTiny(t *testing.T, w workload, traced bool, gold goldenTable) (result, string) {
	t.Helper()
	var out bytes.Buffer
	res, err := runWorkload(w, 3, 1, traced, t.TempDir(), gold, &out)
	if err != nil {
		t.Fatalf("%s traced=%v: %v\n%s", w.Name, traced, err, out.String())
	}
	return res, out.String()
}

// The benchmark contract's name and unit grammars.
var (
	metricName  = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitPattern = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNamesAndUnits(t *testing.T) {
	seen := map[string]bool{}
	for _, tab := range [][]spec{endToEnd, perLayer, extras} {
		for _, s := range tab {
			if !metricName.MatchString(s.Name) {
				t.Errorf("metric name %q does not match %s", s.Name, metricName)
			}
			if !unitPattern.MatchString(s.Unit) {
				t.Errorf("metric %s has unit %q", s.Name, s.Unit)
			}
			if s.Better != "lower" && s.Better != "higher" {
				t.Errorf("metric %s: better=%q", s.Name, s.Better)
			}
			if seen[s.Name] {
				t.Errorf("metric %s declared twice", s.Name)
			}
			seen[s.Name] = true
		}
	}
}

// TestBenchmarkJSONMatchesSpec keeps BENCHMARK.json at the repository root
// in step with the tables the program reports from.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []spec `json:"end_to_end"`
		PerLayer  []spec `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got, want []spec) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.Name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, bj.Workloads[i].Name, w.Name)
		}
	}
}

// TestWorkloadsEmitDeclaredMetrics runs every workload at both levels on a
// tiny instance: the contract line carries exactly the level's metrics,
// every printed metric is declared with its unit, and nothing fails.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	line := regexp.MustCompile(`^perfbench metric (\S+) (\S+) (\S+)$`)
	for _, w := range tiny() {
		for _, traced := range []bool{false, true} {
			res, out := runTiny(t, w, traced, goldenTable{})
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d\n%s",
					w.Name, traced, res.Correct, res.Attempted, res.Failed, out)
			}
			level := endToEnd
			if traced {
				level = perLayer
			}
			if len(res.Metrics) != len(level) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.Name, traced, len(res.Metrics), len(level))
			}
			for _, s := range level {
				if v, ok := res.Metrics[s.Name]; !ok || v.Unit != s.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", w.Name, traced, s.Name, v, s.Unit)
				}
			}
			for _, l := range strings.Split(out, "\n") {
				if !strings.HasPrefix(l, "perfbench metric ") {
					continue
				}
				m := line.FindStringSubmatch(l)
				if m == nil {
					t.Errorf("malformed metric line %q", l)
					continue
				}
				if unit, ok := unitOf(m[1]); !ok || unit != m[3] {
					t.Errorf("%s: printed %q, declared unit %q", w.Name, l, unit)
				}
			}
		}
	}
}

// TestGoldenGate checks that matching goldens pass and a tampered one fails
// the correctness gate.
func TestGoldenGate(t *testing.T) {
	w := tiny()[0]
	w.Name = "tiny-er"
	var out bytes.Buffer
	r := newRunner(w, 3, time.Second, false, t.TempDir(), goldenTable{})
	if err := r.run(); err != nil {
		t.Fatal(err)
	}
	m := r.metrics()
	got := counts{
		Rounds: int64(m["congest.rounds"]), Messages: int64(m["congest.messages"]),
		Words: int64(m["congest.words"]), PeakMem: int64(m["congest.peak_mem_words"]),
		MaxTableWords: int(m["clusterroute.max_table_words"]), MaxLabelWords: int(m["clusterroute.max_label_words"]),
		StretchMax: m["clusterroute.stretch_max"],
	}
	good := goldenTable{w.Name: {"3": got}}
	if res, err := runWorkload(w, 3, 1, false, t.TempDir(), good, &out); err != nil || !res.Correct {
		t.Fatalf("matching golden: err=%v correct=%v\n%s", err, res.Correct, out.String())
	}
	tampered := got
	tampered.Messages++
	out.Reset()
	res, err := runWorkload(w, 3, 1, false, t.TempDir(), goldenTable{w.Name: {"3": tampered}}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Fatalf("tampered golden passed the gate: %+v", res)
	}
	if !strings.Contains(out.String(), "perfbench FAIL exact counts") {
		t.Errorf("no failure line for the tampered golden:\n%s", out.String())
	}
}

// TestGoldensCoverTwoSeeds pins the recorded goldens: every workload has
// seed 1 and a held-out seed, and build-er's seed-1 counts are the
// published Table 1 row.
func TestGoldensCoverTwoSeeds(t *testing.T) {
	g, err := loadGoldens()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if len(g[w.Name]) < 2 || g[w.Name]["1"] == (counts{}) {
			t.Errorf("%s: goldens %v, want seed 1 and a held-out seed", w.Name, g[w.Name])
		}
	}
	if c := g["build-er"]["1"]; c.Rounds != 25301 || c.Messages != 7575590 {
		t.Errorf("build-er seed 1: rounds/messages %d/%d, want 25301/7575590", c.Rounds, c.Messages)
	}
}

func TestFingerprintMismatchFlagged(t *testing.T) {
	w := workloads[0]
	a := hostFingerprint(w, 1, false)
	if hard, soft := mismatches(a, a); len(hard)+len(soft) != 0 {
		t.Fatalf("identical fingerprints differ: %v %v", hard, soft)
	}
	b := a
	b.Seed = 2
	if hard, soft := mismatches(a, b); len(hard) != 0 || len(soft) != 1 {
		t.Errorf("seed change: hard=%v soft=%v, want one soft", hard, soft)
	}
	b = a
	b.NumCPU++
	b.CPU = "other"
	if hard, _ := mismatches(a, b); len(hard) != 2 {
		t.Errorf("host change: hard=%v, want cpu and nproc", hard)
	}

	dir := t.TempDir()
	rec := func(fp fingerprint, buildS float64) string {
		raw, err := json.Marshal(record{Fingerprint: fp, Metrics: map[string]value{"build_s": {buildS, "s"}}})
		if err != nil {
			t.Fatal(err)
		}
		return "perfbench record " + string(raw) + "\n"
	}
	write := func(name string, lines ...string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(strings.Join(lines, "")+"{}\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	pa, pb := write("a.out", rec(a, 3)), write("b.out", rec(b, 3))
	var stdout, stderr bytes.Buffer
	if code := compareMain([]string{pa, pb}, &stdout, &stderr); code != 3 || !strings.Contains(stderr.String(), "FINGERPRINT MISMATCH") {
		t.Errorf("compare across hosts: exit %d, stderr %q; want refusal", code, stderr.String())
	}
	if code := compareMain([]string{pa, pa}, &stdout, &stderr); code != 0 {
		t.Errorf("same-host compare: exit %d", code)
	}

	// A --workload all output holds one record per workload; a mismatch in
	// any of them refuses the whole comparison.
	other := a
	other.Workload, other.Shards = "serve-zipf", 2
	otherHost := other
	otherHost.CPU = "other"
	if code := compareMain([]string{write("all-a.out", rec(a, 3), rec(other, 1)), write("all-b.out", rec(a, 3), rec(otherHost, 1))}, &stdout, &stderr); code != 3 {
		t.Errorf("mismatch in the second record: exit %d, want 3", code)
	}
}

// TestCompareEveryWorkload feeds compare two outputs of --workload all and
// checks that every workload's metrics are compared, not only the last.
func TestCompareEveryWorkload(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, buildS map[string]float64) string {
		var sb strings.Builder
		for _, w := range workloads {
			raw, err := json.Marshal(record{
				Fingerprint: hostFingerprint(w, 1, false),
				Metrics:     map[string]value{"build_s": {buildS[w.Name], "s"}},
			})
			if err != nil {
				t.Fatal(err)
			}
			sb.WriteString("perfbench record " + string(raw) + "\n")
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	old := write("old.out", map[string]float64{"build-er": 2, "serve-zipf": 4})
	after := write("new.out", map[string]float64{"build-er": 1, "serve-zipf": 5})
	var stdout, stderr bytes.Buffer
	if code := compareMain([]string{old, after}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	for _, want := range []string{"== build-er", "-50.00%", "== serve-zipf", "+25.00%"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("compare output lacks %q:\n%s", want, stdout.String())
		}
	}
	dup := write("dup.out", nil)
	raw, _ := os.ReadFile(dup)
	if err := os.WriteFile(dup, append(raw, raw...), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := compareMain([]string{old, dup}, &stdout, &stderr); code != 2 {
		t.Errorf("file with two records of one workload: exit %d, want 2", code)
	}
}

func TestZipfFavoursLowRanks(t *testing.T) {
	tr := newTrafficPlan(64, 1)
	hits := make([]int, 64)
	for _, d := range tr.dsts {
		hits[d]++
	}
	// Rank 0, vertex 0, of Zipf(1) over 64 items draws 1/H(64) ≈ 21% of the time.
	if share := float64(hits[0]) / float64(len(tr.dsts)); share < 0.15 || share > 0.3 {
		t.Errorf("vertex 0 share %.3f, want about 0.21", share)
	}
	if a, b := newTrafficPlan(64, 1), newTrafficPlan(64, 1); a.srcs[7] != b.srcs[7] || a.pairs[9] != b.pairs[9] {
		t.Error("traffic is not a function of the seed")
	}
}

func TestInstanceSeeds(t *testing.T) {
	if instanceSeed(42, 0) != 42 {
		t.Error("instance 0 must use the run's own seed")
	}
	seen := map[int64]bool{}
	for s := int64(1); s <= 10; s++ {
		for i := 1; i < 8; i++ {
			v := instanceSeed(s, i)
			if v < 0 || seen[v] {
				t.Fatalf("instanceSeed(%d, %d) = %d repeats or is negative", s, i, v)
			}
			seen[v] = true
		}
	}
}

// TestAttributionCoverage checks the coverage gate on synthetic span trees:
// spans covering 99% of a build pass, 90% fails, and the uncovered time is
// reported as core.unattributed_s.
func TestAttributionCoverage(t *testing.T) {
	spans := func(topNs int64) trace.Export {
		var exp trace.Export
		for _, name := range topSpans {
			sp := trace.SpanExport{Name: name, WallNanos: topNs / int64(len(topSpans)), Messages: 10}
			if name == "tree-routing" {
				for _, sub := range append(append([]string(nil), treeSubPhases...), "global-sizes") {
					sp.Children = append(sp.Children, trace.SpanExport{Name: sub, WallNanos: sp.WallNanos / 8, Messages: 1})
				}
			}
			exp.Spans = append(exp.Spans, sp)
		}
		return exp
	}
	for _, tc := range []struct {
		covered int64
		pass    bool
	}{{990_000_000, true}, {900_000_000, false}} {
		r := newRunner(workloads[0], 1, time.Second, true, t.TempDir(), goldenTable{})
		r.attribute(spans(tc.covered), 1.0)
		if got := r.checks.failed == 0; got != tc.pass {
			t.Errorf("spans covering %d ns of 1 s: pass=%v, want %v (%v)", tc.covered, got, tc.pass, r.checks.notes)
		}
		if u := median(r.samples["core.unattributed_s"]); math.Abs(u-(1-float64(tc.covered)/1e9)) > 1e-9 {
			t.Errorf("unattributed %v s, want %v", u, 1-float64(tc.covered)/1e9)
		}
	}
}
