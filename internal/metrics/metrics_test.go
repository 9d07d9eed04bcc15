package metrics

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"lowmemroute/internal/dataplane"
	"lowmemroute/internal/graph"
	"lowmemroute/internal/tz"
)

func TestFormatTable(t *testing.T) {
	out := FormatTable(
		[]string{"scheme", "rounds"},
		[][]string{{"paper", "123"}, {"en16b-longname", "4"}},
	)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines=%d: %q", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "scheme") {
		t.Fatalf("header: %q", lines[0])
	}
	if !strings.Contains(lines[1], "---") {
		t.Fatalf("rule: %q", lines[1])
	}
	// All lines align to the same width structure.
	if len(lines[2]) > len(lines[3])+10 {
		t.Fatalf("misaligned: %q vs %q", lines[2], lines[3])
	}
}

func TestFormatInt(t *testing.T) {
	tests := []struct {
		in   int64
		want string
	}{
		{0, "0"},
		{-1, "-1"},
		{999, "999"},
		{1000, "1,000"},
		{-1000, "-1,000"},
		{999999, "999,999"},
		{1000000, "1,000,000"},
		{1234567, "1,234,567"},
		{-4321, "-4,321"},
		{math.MaxInt64, "9,223,372,036,854,775,807"},
		{math.MinInt64, "-9,223,372,036,854,775,808"},
	}
	for _, tt := range tests {
		if got := FormatInt(tt.in); got != tt.want {
			t.Fatalf("FormatInt(%d)=%q want %q", tt.in, got, tt.want)
		}
	}
}

func TestMeasureStretch(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	g, err := graph.Generate(graph.FamilyErdosRenyi, 80, r)
	if err != nil {
		t.Fatal(err)
	}
	s, err := tz.Build(g, tz.Options{K: 2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	tab := dataplane.Compile(s.Scheme)
	st := MeasureStretch(g, tab, 100, rand.New(rand.NewSource(3)))
	if st.Pairs == 0 {
		t.Fatal("no pairs measured")
	}
	if st.Failures != 0 {
		t.Fatalf("failures=%d", st.Failures)
	}
	if st.Max < 1 || st.Avg < 1 || st.Avg > st.Max {
		t.Fatalf("stretch stats inconsistent: %+v", st)
	}
	if st.Max > float64(4*2-3)+1e-9 {
		t.Fatalf("max stretch %v above bound", st.Max)
	}
}

func TestStretchHistogram(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	g, err := graph.Generate(graph.FamilyErdosRenyi, 60, r)
	if err != nil {
		t.Fatal(err)
	}
	s, err := tz.Build(g, tz.Options{K: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	tab := dataplane.Compile(s.Scheme)
	hist, failures := StretchHistogram(g, tab, 150, 10, 0.5, rand.New(rand.NewSource(6)))
	if failures != 0 {
		t.Fatalf("failures=%d on a complete scheme", failures)
	}
	total := 0
	for _, c := range hist {
		total += c
	}
	if total == 0 {
		t.Fatal("empty histogram")
	}
	if hist[0] == 0 {
		t.Fatal("expected some near-exact routes in bucket 0")
	}
}

// flakyRouter fails every route out of an even source, exercising the
// failure-count paths of MeasureStretch and StretchHistogram.
type flakyRouter struct{ inner WeightedRouter }

func (f flakyRouter) Route(src, dst int) ([]int, float64, error) {
	if src%2 == 0 {
		return nil, 0, fmt.Errorf("flaky: refusing src %d", src)
	}
	return f.inner.Route(src, dst)
}

func TestStretchHistogramCountsFailures(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	g, err := graph.Generate(graph.FamilyErdosRenyi, 60, r)
	if err != nil {
		t.Fatal(err)
	}
	s, err := tz.Build(g, tz.Options{K: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	tab := dataplane.Compile(s.Scheme)
	hist, failures := StretchHistogram(g, flakyRouter{tab}, 150, 10, 0.5, rand.New(rand.NewSource(6)))
	if failures == 0 {
		t.Fatal("expected some failed pairs")
	}
	total := 0
	for _, c := range hist {
		total += c
	}
	if total == 0 {
		t.Fatal("failures must not wipe out the histogram")
	}
	// The routable half of the pairs must bucket exactly as before.
	full, _ := StretchHistogram(g, tab, 150, 10, 0.5, rand.New(rand.NewSource(6)))
	fullTotal := 0
	for _, c := range full {
		fullTotal += c
	}
	if total >= fullTotal {
		t.Fatalf("flaky total %d should be below full total %d", total, fullTotal)
	}
}

func TestRunTable1AllSchemes(t *testing.T) {
	rows, err := RunTable1(Table1Config{
		Family: graph.FamilyErdosRenyi,
		N:      100,
		K:      2,
		Seed:   7,
		Pairs:  60,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows=%d want 4", len(rows))
	}
	byName := map[string]SchemeRow{}
	for _, r := range rows {
		byName[r.Scheme] = r
		if r.TableWords == 0 || r.LabelWords == 0 {
			t.Fatalf("scheme %s has empty sizes: %+v", r.Scheme, r)
		}
		if r.Stretch.Failures > 0 {
			t.Fatalf("scheme %s had routing failures", r.Scheme)
		}
		if r.Stretch.Max > float64(4*2-3)+0.5 {
			t.Fatalf("scheme %s stretch %v out of bound", r.Scheme, r.Stretch.Max)
		}
	}
	if byName["tz"].Rounds != 0 {
		t.Fatal("centralized TZ should have no rounds")
	}
	for _, name := range []string{"lp15", "en16b", "paper"} {
		if byName[name].Rounds == 0 {
			t.Fatalf("%s should charge rounds", name)
		}
		if byName[name].PeakMem == 0 {
			t.Fatalf("%s should charge memory", name)
		}
	}
}

func TestRunTable1UnknownScheme(t *testing.T) {
	_, err := RunTable1(Table1Config{
		Family:  graph.FamilyErdosRenyi,
		N:       30,
		K:       2,
		Seed:    1,
		Schemes: []string{"bogus"},
	})
	if err == nil {
		t.Fatal("unknown scheme should error")
	}
}

func TestRunTable2AllSchemes(t *testing.T) {
	rows, err := RunTable2(Table2Config{
		N:     150,
		Seed:  8,
		Pairs: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows=%d want 3", len(rows))
	}
	byName := map[string]TreeRow{}
	for _, r := range rows {
		byName[r.Scheme] = r
		if !r.Exact {
			t.Fatalf("scheme %s not exact", r.Scheme)
		}
	}
	// Table 2's shape: the paper's tables O(1) < baseline tables; the
	// paper's labels <= baseline labels; the paper's memory << baseline.
	if byName["paper-tree"].TableWords != 4 {
		t.Fatalf("paper tree tables = %d want 4", byName["paper-tree"].TableWords)
	}
	if byName["en16b-tree"].TableWords <= byName["paper-tree"].TableWords {
		t.Fatal("baseline tables should exceed the paper's")
	}
	if byName["en16b-tree"].LabelWords < byName["paper-tree"].LabelWords {
		t.Fatal("baseline labels should be at least the paper's")
	}
	if byName["en16b-tree"].PeakMem <= byName["paper-tree"].PeakMem {
		t.Fatal("baseline memory should exceed the paper's")
	}
	if byName["tz-tree"].TableWords != byName["paper-tree"].TableWords {
		t.Fatal("paper should match the centralized TZ table size")
	}
}

func TestSweepMemoryVsK(t *testing.T) {
	pts, err := SweepMemoryVsK(graph.FamilyErdosRenyi, 120, []int{2, 3}, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points=%d", len(pts))
	}
	for _, p := range pts {
		if p.PaperPeak == 0 || p.BaselinePeak == 0 {
			t.Fatalf("empty point: %+v", p)
		}
	}
}

func TestSweepTreeRoundsVsN(t *testing.T) {
	pts, err := SweepTreeRoundsVsN(graph.FamilyErdosRenyi, []int{60, 120}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points=%d", len(pts))
	}
	for _, p := range pts {
		if p.Rounds == 0 || p.Height == 0 {
			t.Fatalf("empty point: %+v", p)
		}
	}
}

func TestRunMultiTree(t *testing.T) {
	pts, err := RunMultiTree(graph.FamilyErdosRenyi, 100, []int{3}, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 {
		t.Fatalf("points=%d", len(pts))
	}
	p := pts[0]
	if p.ParallelRounds == 0 || p.SequentialSum == 0 {
		t.Fatalf("empty point: %+v", p)
	}
	// Parallel construction must beat the naive sequential sum.
	if p.ParallelRounds >= p.SequentialSum {
		t.Fatalf("parallel %d should beat sequential %d", p.ParallelRounds, p.SequentialSum)
	}
}

func TestRunHopsetAblation(t *testing.T) {
	pts, err := RunHopsetAblation(graph.FamilyErdosRenyi, 120, 0.3, []int{2, 3}, 12)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points=%d", len(pts))
	}
	for _, p := range pts {
		if p.Edges == 0 || p.Arboricity == 0 {
			t.Fatalf("empty hopset: %+v", p)
		}
		if p.IterWith > p.IterWithout {
			t.Fatalf("hopset should not slow convergence: %+v", p)
		}
	}
}
