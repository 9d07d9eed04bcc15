package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// The loader is shared across tests: type-checking the standard library from
// source dominates the cost and is cached per Loader.
var (
	loaderOnce sync.Once
	loader     *Loader
	loaderErr  error
)

func sharedLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() { loader, loaderErr = NewLoader(".") })
	if loaderErr != nil {
		t.Fatalf("NewLoader: %v", loaderErr)
	}
	return loader
}

var (
	wantLineRe = regexp.MustCompile(`// want (.+)$`)
	wantArgRe  = regexp.MustCompile("`([^`]+)`")
)

type wantEntry struct {
	re      *regexp.Regexp
	raw     string
	matched bool
}

// collectWants scans the fixture directory for `// want` comments, keyed by
// (module-root-relative file, line) to match Diagnostic positions.
func collectWants(t *testing.T, l *Loader, dir string) map[string][]*wantEntry {
	t.Helper()
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := filepath.Rel(l.Root(), abs)
	if err != nil {
		t.Fatal(err)
	}
	wants := make(map[string][]*wantEntry)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		file := filepath.ToSlash(filepath.Join(rel, e.Name()))
		for i, line := range strings.Split(string(data), "\n") {
			m := wantLineRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			args := wantArgRe.FindAllStringSubmatch(m[1], -1)
			if len(args) == 0 {
				t.Fatalf("%s:%d: malformed want comment %q", file, i+1, line)
			}
			key := posKey(file, i+1)
			for _, a := range args {
				wants[key] = append(wants[key], &wantEntry{re: regexp.MustCompile(a[1]), raw: a[1]})
			}
		}
	}
	return wants
}

func posKey(file string, line int) string {
	return fmt.Sprintf("%s:%d", file, line)
}

// runFixture runs the named analyzers over one fixture package and checks the
// findings against its // want comments: every finding must match a want on
// its line, and every want must be hit.
func runFixture(t *testing.T, fixture string, enable []string) {
	t.Helper()
	l := sharedLoader(t)
	dir := filepath.Join("testdata", "src", fixture)
	analyzers, err := Select(enable, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunDirs(l, []string{dir}, analyzers)
	if err != nil {
		t.Fatalf("RunDirs(%s): %v", fixture, err)
	}
	wants := collectWants(t, l, dir)
	for _, d := range res.Findings {
		key := posKey(d.File, d.Line)
		matched := false
		for _, w := range wants[key] {
			if w.re.MatchString(d.Message) {
				w.matched = true
				matched = true
			}
		}
		if !matched {
			t.Errorf("unexpected finding %s:%d:%d %s(%s): %s", d.File, d.Line, d.Col, d.Code, d.Analyzer, d.Message)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s: no finding matched want `%s`", key, w.raw)
			}
		}
	}
}

func TestCongestIsolationFixture(t *testing.T) {
	runFixture(t, "isolation", []string{"congestisolation"})
}

func TestMeterAccountFixture(t *testing.T) {
	runFixture(t, "meteraccount", []string{"meteraccount"})
}

// TestMeterAccountDataPlaneExempt pins the dataplane carve-out: the fixture
// is simulator-scoped and allocates in every flagged shape, yet LM002 must
// produce zero findings (the fixture carries no // want comments).
func TestMeterAccountDataPlaneExempt(t *testing.T) {
	runFixture(t, "dataplane", []string{"meteraccount"})
}

func TestDeterminismFixture(t *testing.T) {
	runFixture(t, "determinism", []string{"determinism"})
}

func TestWireSizeFixture(t *testing.T) {
	runFixture(t, "wiresize", []string{"wiresize"})
}

func TestAnyPayloadFixture(t *testing.T) {
	runFixture(t, "anypayload", []string{"anypayload"})
}

func TestExtOwnershipFixture(t *testing.T) {
	runFixture(t, "extownership", []string{"extownership"})
}

// TestCSRTopoFixture covers the simulator's topology accessor surface
// (*graph.CSR): reads of the shared CSR arrays are free for
// LM002, copies into retained vertex state are not, and LM006's arena
// ownership rules survive NeighborRange fan-out loops unchanged.
func TestCSRTopoFixture(t *testing.T) {
	runFixture(t, "csrtopo", []string{"meteraccount", "extownership"})
}

func TestKindConformanceFixture(t *testing.T) {
	runFixture(t, "kindconformance", []string{"kindconformance"})
}

func TestCodecSymmetryFixture(t *testing.T) {
	runFixture(t, "codecsymmetry", []string{"codecsymmetry"})
}

// TestDirectiveDiagnostics pins the LM000 catalogue: a malformed directive
// occupies its whole source line, so the expectations are explicit here
// instead of // want comments.
func TestDirectiveDiagnostics(t *testing.T) {
	l := sharedLoader(t)
	res, err := RunDirs(l, []string{filepath.Join("testdata", "src", "directives")}, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantMsgs := []string{
		"//lint:meterfree requires a reason",
		"//lint:waive requires an analyzer name and a reason",
		`//lint:waive names unknown analyzer "nosuch"`,
		"unknown lint directive //lint:frobnicate",
	}
	if len(res.Findings) != len(wantMsgs) {
		t.Fatalf("got %d findings, want %d: %+v", len(res.Findings), len(wantMsgs), res.Findings)
	}
	for i, d := range res.Findings {
		if d.Code != CodeDirectives || d.Analyzer != "directives" {
			t.Errorf("finding %d: got %s(%s), want %s(directives)", i, d.Code, d.Analyzer, CodeDirectives)
		}
		if d.Message != wantMsgs[i] {
			t.Errorf("finding %d: got message %q, want %q", i, d.Message, wantMsgs[i])
		}
		if !strings.HasSuffix(d.File, "testdata/src/directives/directives.go") {
			t.Errorf("finding %d: unexpected file %q", i, d.File)
		}
	}
}

func TestSelect(t *testing.T) {
	all, err := Select(nil, nil)
	if err != nil || len(all) != 8 {
		t.Fatalf("Select(nil, nil) = %d analyzers, err %v; want 8, nil", len(all), err)
	}
	only, err := Select([]string{"determinism"}, nil)
	if err != nil || len(only) != 1 || only[0].Code != "LM003" {
		t.Fatalf("Select(determinism) = %+v, %v", only, err)
	}
	rest, err := Select(nil, []string{"wiresize", "meteraccount"})
	if err != nil || len(rest) != 6 {
		t.Fatalf("Select(disable two) = %d analyzers, err %v", len(rest), err)
	}
	for _, a := range rest {
		if a.Name == "wiresize" || a.Name == "meteraccount" {
			t.Errorf("disabled analyzer %s still selected", a.Name)
		}
	}
	if _, err := Select([]string{"nosuch"}, nil); err == nil {
		t.Error("Select(enable nosuch) did not error")
	}
	if _, err := Select(nil, []string{"nosuch"}); err == nil {
		t.Error("Select(disable nosuch) did not error")
	}
}

func TestAnalyzerCodesUnique(t *testing.T) {
	seen := make(map[string]string)
	for _, a := range Analyzers() {
		if prev, ok := seen[a.Code]; ok {
			t.Errorf("code %s used by both %s and %s", a.Code, prev, a.Name)
		}
		seen[a.Code] = a.Name
	}
}

func TestBaselineApply(t *testing.T) {
	f1 := Diagnostic{File: "a.go", Line: 3, Col: 1, Code: "LM002", Analyzer: "meteraccount", Message: "m1"}
	f2 := Diagnostic{File: "b.go", Line: 9, Col: 5, Code: "LM003", Analyzer: "determinism", Message: "m2"}

	b := NewBaseline([]Diagnostic{f1, f2})
	fresh, stale := b.Apply([]Diagnostic{f1, f2})
	if len(fresh) != 0 || len(stale) != 0 {
		t.Fatalf("full match: fresh=%v stale=%v", fresh, stale)
	}

	// The baseline is line-independent: a moved finding still matches.
	moved := f1
	moved.Line = 99
	fresh, stale = NewBaseline([]Diagnostic{f1}).Apply([]Diagnostic{moved})
	if len(fresh) != 0 || len(stale) != 0 {
		t.Fatalf("moved finding: fresh=%v stale=%v", fresh, stale)
	}

	// A fixed finding leaves its baseline entry stale — that must surface.
	fresh, stale = b.Apply([]Diagnostic{f1})
	if len(fresh) != 0 {
		t.Fatalf("unexpected fresh findings: %v", fresh)
	}
	if len(stale) != 1 || stale[0].File != "b.go" || stale[0].Code != "LM003" {
		t.Fatalf("stale = %+v, want the b.go LM003 entry", stale)
	}

	// Counted entries go stale partially.
	two := NewBaseline([]Diagnostic{f1, f1})
	if two.Entries[0].Count != 2 {
		t.Fatalf("count = %d, want 2", two.Entries[0].Count)
	}
	fresh, stale = two.Apply([]Diagnostic{f1})
	if len(fresh) != 0 || len(stale) != 1 || stale[0].Count != 1 {
		t.Fatalf("partial: fresh=%v stale=%+v", fresh, stale)
	}

	// A new finding is fresh even with a baseline present.
	f3 := Diagnostic{File: "c.go", Line: 1, Code: "LM001", Analyzer: "congestisolation", Message: "m3"}
	fresh, _ = b.Apply([]Diagnostic{f1, f2, f3})
	if len(fresh) != 1 || fresh[0].File != "c.go" {
		t.Fatalf("fresh = %v, want the c.go finding", fresh)
	}
}

func TestBaselineRoundTripAndSchema(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "baseline.json")
	b := NewBaseline([]Diagnostic{{File: "a.go", Line: 1, Code: "LM004", Analyzer: "wiresize", Message: "m"}})
	if err := WriteBaseline(path, b); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != BaselineSchema || len(got.Entries) != 1 || got.Entries[0].Code != "LM004" {
		t.Fatalf("round trip: %+v", got)
	}

	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"schema":"other/v9","entries":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBaseline(bad); err == nil || !strings.Contains(err.Error(), "unsupported schema") {
		t.Fatalf("ReadBaseline(bad schema) err = %v, want unsupported-schema error", err)
	}
}

// TestBaselineEmptyRoundTrip pins the empty-baseline serialization: a clean
// run writes "entries": [] (not null), and readers accept both spellings.
func TestBaselineEmptyRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "empty.json")
	if err := WriteBaseline(path, NewBaseline(nil)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"entries": []`) {
		t.Errorf("empty baseline serialized without \"entries\": []:\n%s", data)
	}
	got, err := ReadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Entries) != 0 {
		t.Fatalf("entries = %+v, want none", got.Entries)
	}

	// Legacy files with "entries": null still load.
	legacy := filepath.Join(dir, "legacy.json")
	if err := os.WriteFile(legacy, []byte(`{"schema":"`+BaselineSchema+`","entries":null}`), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err = ReadBaseline(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Entries) != 0 {
		t.Fatalf("legacy entries = %+v, want none", got.Entries)
	}
	fresh, stale := got.Apply(nil)
	if len(fresh) != 0 || len(stale) != 0 {
		t.Fatalf("Apply on legacy empty baseline: fresh=%v stale=%v", fresh, stale)
	}
}

func TestReportJSONSchema(t *testing.T) {
	rep := NewReport(
		[]Diagnostic{{File: "x.go", Line: 2, Col: 7, Code: "LM001", Analyzer: "congestisolation", Message: "m"}},
		[]BaselineEntry{{File: "y.go", Code: "LM002", Message: "gone", Count: 1}},
		3,
	)
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if decoded["schema"] != ReportSchema {
		t.Errorf("schema = %v, want %q", decoded["schema"], ReportSchema)
	}
	findings, ok := decoded["findings"].([]any)
	if !ok || len(findings) != 1 {
		t.Fatalf("findings = %v", decoded["findings"])
	}
	f := findings[0].(map[string]any)
	for _, key := range []string{"file", "line", "col", "code", "analyzer", "severity", "message"} {
		if _, ok := f[key]; !ok {
			t.Errorf("finding missing %q key: %v", key, f)
		}
	}
	summary, ok := decoded["summary"].(map[string]any)
	if !ok {
		t.Fatalf("summary = %v", decoded["summary"])
	}
	if summary["findings"] != float64(1) || summary["baselined"] != float64(3) || summary["stale"] != float64(1) {
		t.Errorf("summary = %v", summary)
	}
	if _, ok := decoded["staleBaseline"].([]any); !ok {
		t.Errorf("staleBaseline = %v", decoded["staleBaseline"])
	}

	// An empty report keeps findings as [] (not null) for consumers.
	var empty bytes.Buffer
	if err := NewReport(nil, nil, 0).WriteJSON(&empty); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(empty.String(), `"findings": []`) {
		t.Errorf("empty report serialises findings as null:\n%s", empty.String())
	}
}

func TestExpandSkipsTestdata(t *testing.T) {
	dirs, err := Expand([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if strings.Contains(d, "testdata") {
			t.Errorf("Expand walked into %s", d)
		}
	}
	if len(dirs) != 1 || dirs[0] != "." {
		t.Errorf("Expand(./...) from internal/lint = %v, want [.]", dirs)
	}
}
