package lint

import (
	"encoding/json"
	"fmt"
	"io"
)

// ReportSchema identifies the -json output layout. v2 added the per-finding
// "severity" field ("error" or "warning"); v3 dropped the baseline fields
// ("staleBaseline", "summary.baselined", "summary.stale") with the baseline
// itself: every finding is reported.
const ReportSchema = "lowmemlint/v3"

// Report is the machine-readable run outcome.
type Report struct {
	Schema   string        `json:"schema"`
	Findings []Diagnostic  `json:"findings"`
	Summary  ReportSummary `json:"summary"`
}

// ReportSummary aggregates the run.
type ReportSummary struct {
	Findings int `json:"findings"`
}

// NewReport assembles the report for a run's findings.
func NewReport(findings []Diagnostic) Report {
	if findings == nil {
		findings = []Diagnostic{}
	}
	return Report{
		Schema:   ReportSchema,
		Findings: findings,
		Summary:  ReportSummary{Findings: len(findings)},
	}
}

// WriteJSON writes the report as indented JSON.
func (r Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteText writes the human-readable report: one line per finding in the
// canonical file:line:col: CODE(analyzer): message form, then a one-line
// summary.
func (r Report) WriteText(w io.Writer) {
	for _, d := range r.Findings {
		mark := ""
		if d.Severity == SeverityWarning {
			mark = " [warning]"
		}
		fmt.Fprintf(w, "%s:%d:%d: %s(%s): %s%s\n", d.File, d.Line, d.Col, d.Code, d.Analyzer, d.Message, mark)
	}
	if len(r.Findings) == 0 {
		fmt.Fprintln(w, "lowmemlint: clean")
		return
	}
	fmt.Fprintf(w, "lowmemlint: %d finding(s)\n", r.Summary.Findings)
}
