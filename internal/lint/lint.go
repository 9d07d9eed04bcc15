// Package lint implements lowmemlint, a stdlib-only static analyzer suite
// that enforces the repository's model-level resource invariants at build
// time: CONGEST vertex isolation (LM001), meter accounting of per-vertex
// allocations (LM002), schedule determinism (LM003), honest wire-size
// accounting of message payloads (LM004), a ban on interface-typed payloads
// on the wire (LM005), arena Ext ownership (LM006), sender/receiver
// PayloadKind conformance (LM007), and encode/decode codec symmetry (LM008).
// The LM006–LM008 analyzers share a package-level dataflow layer (dataflow.go,
// protocol.go): go/types-driven intra-procedural value tracking plus
// fixed-point call summaries for cross-function flows. See DESIGN.md §8 for
// the mapping from each analyzer to the paper invariant it guards.
//
// Findings can be waived in place with comment directives:
//
//	//lint:meterfree <reason>        waive meteraccount at this line
//	//lint:waive <analyzer> <reason> waive any analyzer at this line
//
// A waiver suppresses findings on its own line and on the line directly
// below it (so it can sit above the flagged statement). Malformed directives
// are themselves reported (LM000). A package outside the built-in simulator
// set can opt into the simulator-scoped analyzers with a //lint:simulator
// comment (used by the test fixtures).
package lint

import (
	"fmt"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
)

// Diagnostic is one finding. File is relative to the module root so that
// output is stable across checkouts.
type Diagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Code     string `json:"code"`
	Analyzer string `json:"analyzer"`
	Severity string `json:"severity"` // "error" or "warning"
	Message  string `json:"message"`
}

// Diagnostic severities. Both fail the run (exit 1): a warning marks a
// finding that is advisory in nature (dead protocol kinds, unresolvable
// payload expressions) rather than a proven invariant violation, but letting
// either rot silently defeats the point of the suite.
const (
	SeverityError   = "error"
	SeverityWarning = "warning"
)

// Analyzer is one independently enable/disable-able check.
type Analyzer struct {
	Name string // flag-facing name, e.g. "determinism"
	Code string // diagnostic code, e.g. "LM003"
	Doc  string // one-line description
	Run  func(*Pass)
}

// Analyzers returns the full suite in diagnostic-code order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		analyzerCongestIsolation(),
		analyzerMeterAccount(),
		analyzerDeterminism(),
		analyzerWireSize(),
		analyzerAnyPayload(),
		analyzerExtOwnership(),
		analyzerKindConformance(),
		analyzerCodecSymmetry(),
	}
}

// Select resolves -enable/-disable flag values against the full suite.
// Empty enable means "all"; disable is applied afterwards.
func Select(enable, disable []string) ([]*Analyzer, error) {
	all := Analyzers()
	byName := make(map[string]*Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	chosen := all
	if len(enable) > 0 {
		chosen = nil
		for _, n := range enable {
			a, ok := byName[n]
			if !ok {
				return nil, fmt.Errorf("lint: unknown analyzer %q", n)
			}
			chosen = append(chosen, a)
		}
	}
	if len(disable) > 0 {
		drop := make(map[string]bool, len(disable))
		for _, n := range disable {
			if _, ok := byName[n]; !ok {
				return nil, fmt.Errorf("lint: unknown analyzer %q", n)
			}
			drop[n] = true
		}
		var kept []*Analyzer
		for _, a := range chosen {
			if !drop[a.Name] {
				kept = append(kept, a)
			}
		}
		chosen = kept
	}
	return chosen, nil
}

// Pass carries one analyzer's run over one package.
type Pass struct {
	Loader *Loader
	Pkg    *Package

	analyzer *Analyzer
	waivers  []*waiver
	out      *[]Diagnostic
}

// Fset returns the shared file set.
func (p *Pass) Fset() *token.FileSet { return p.Loader.Fset }

// Reportf records an error-severity finding at pos unless a matching waiver
// covers it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.ReportSeverityf(pos, SeverityError, format, args...)
}

// ReportSeverityf records a finding with an explicit severity at pos unless
// a matching waiver covers it.
func (p *Pass) ReportSeverityf(pos token.Pos, severity string, format string, args ...any) {
	position := p.Loader.Fset.Position(pos)
	file := relPath(p.Loader.root, position.Filename)
	for _, w := range p.waivers {
		if w.analyzer == p.analyzer.Name && w.file == file &&
			(position.Line == w.line || position.Line == w.line+1) {
			w.used = true
			return
		}
	}
	*p.out = append(*p.out, Diagnostic{
		File:     file,
		Line:     position.Line,
		Col:      position.Column,
		Code:     p.analyzer.Code,
		Analyzer: p.analyzer.Name,
		Severity: severity,
		Message:  fmt.Sprintf(format, args...),
	})
}

func relPath(root, file string) string {
	if rel, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return filepath.ToSlash(file)
}

// waiver is one parsed //lint:meterfree or //lint:waive directive.
type waiver struct {
	file     string
	line     int
	analyzer string
	reason   string
	used     bool
}

const (
	// CodeDirectives is the diagnostic code for malformed lint directives.
	CodeDirectives = "LM000"
	// directiveAnalyzer is the pseudo-analyzer name attached to LM000.
	directiveAnalyzer = "directives"
)

// scanDirectives parses all //lint: comments of pkg, returning the valid
// waivers and a diagnostic for every malformed directive.
func scanDirectives(l *Loader, pkg *Package, known map[string]bool) ([]*waiver, []Diagnostic) {
	var ws []*waiver
	var diags []Diagnostic
	report := func(pos token.Pos, format string, args ...any) {
		position := l.Fset.Position(pos)
		diags = append(diags, Diagnostic{
			File:     relPath(l.root, position.Filename),
			Line:     position.Line,
			Col:      position.Column,
			Code:     CodeDirectives,
			Analyzer: directiveAnalyzer,
			Severity: SeverityError,
			Message:  fmt.Sprintf(format, args...),
		})
	}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//lint:")
				if !ok {
					continue
				}
				position := l.Fset.Position(c.Pos())
				file := relPath(l.root, position.Filename)
				verb, rest, _ := strings.Cut(strings.TrimSpace(text), " ")
				rest = strings.TrimSpace(rest)
				switch verb {
				case "simulator":
					// Scope marker, handled by simulatorScoped.
				case "meterfree":
					if rest == "" {
						report(c.Pos(), "//lint:meterfree requires a reason")
						continue
					}
					ws = append(ws, &waiver{file: file, line: position.Line, analyzer: "meteraccount", reason: rest})
				case "waive":
					name, reason, _ := strings.Cut(rest, " ")
					reason = strings.TrimSpace(reason)
					if name == "" || reason == "" {
						report(c.Pos(), "//lint:waive requires an analyzer name and a reason")
						continue
					}
					if !known[name] {
						report(c.Pos(), "//lint:waive names unknown analyzer %q", name)
						continue
					}
					ws = append(ws, &waiver{file: file, line: position.Line, analyzer: name, reason: reason})
				default:
					report(c.Pos(), "unknown lint directive //lint:%s", verb)
				}
			}
		}
	}
	return ws, diags
}

// simulatorPkgs are the packages whose code runs (or schedules) simulated
// CONGEST processors; the isolation, determinism, and wiresize analyzers
// apply to them.
var simulatorPkgs = map[string]bool{
	"congest":      true,
	"treeroute":    true,
	"hopset":       true,
	"core":         true,
	"clusterroute": true,
}

// simulatorScoped reports whether pkg is subject to the simulator-scoped
// analyzers: its import-path base is one of the simulator packages, or a file
// carries the //lint:simulator marker.
func simulatorScoped(pkg *Package) bool {
	if simulatorPkgs[pathBase(pkg.Path)] {
		return true
	}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if strings.TrimSpace(strings.TrimPrefix(c.Text, "//lint:")) == "simulator" &&
					strings.HasPrefix(c.Text, "//lint:") {
					return true
				}
			}
		}
	}
	return false
}

func pathBase(p string) string {
	if i := strings.LastIndexByte(p, '/'); i >= 0 {
		return p[i+1:]
	}
	return p
}

// Result is the outcome of a run over a set of packages.
type Result struct {
	Findings []Diagnostic
}

// RunDirs loads every directory and runs the given analyzers over each
// package, returning all findings sorted by position. Malformed lint
// directives are reported as LM000 regardless of the analyzer selection.
func RunDirs(l *Loader, dirs []string, analyzers []*Analyzer) (*Result, error) {
	known := make(map[string]bool)
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	var findings []Diagnostic
	for _, dir := range dirs {
		pkg, err := l.LoadDir(dir)
		if err != nil {
			return nil, err
		}
		waivers, dirDiags := scanDirectives(l, pkg, known)
		findings = append(findings, dirDiags...)
		for _, a := range analyzers {
			pass := &Pass{Loader: l, Pkg: pkg, analyzer: a, waivers: waivers, out: &findings}
			a.Run(pass)
		}
	}
	findings = dedupe(findings)
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Code != b.Code {
			return a.Code < b.Code
		}
		return a.Message < b.Message
	})
	return &Result{Findings: findings}, nil
}

// dedupe drops exact duplicates (e.g. two uses of the same global on one
// line produce one finding).
func dedupe(ds []Diagnostic) []Diagnostic {
	seen := make(map[Diagnostic]bool, len(ds))
	out := ds[:0]
	for _, d := range ds {
		if !seen[d] {
			seen[d] = true
			out = append(out, d)
		}
	}
	return out
}
