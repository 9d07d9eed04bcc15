// Command lowmemlint runs the repository's model-invariant static analyzer
// suite (internal/lint) over the given package patterns.
//
// Usage:
//
//	lowmemlint [flags] [patterns]
//
// Patterns default to ./internal/...; a pattern ending in /... walks the
// tree.
//
// Exit-code contract: 0 when the run is clean (or when an artifact was
// written via -graph / -graph-dot), 1 when there are findings (there is no
// baseline: every finding counts), and 2 when flags are invalid or packages
// fail to load.
//
// Flags:
//
//	-json                  emit the lowmemlint/v3 JSON report (per-finding severity)
//	-graph FILE            write the lowmemlint/protocol-v1 kind graph as JSON and exit
//	-graph-dot FILE        write the kind graph as Graphviz dot and exit
//	-enable a,b            run only the named analyzers
//	-disable a,b           run all but the named analyzers
//	-list                  list analyzers and exit
//
// -graph and -graph-dot may be combined; both artifacts are written before
// exiting. The graph is built from the whole-repo send/receive extraction
// that backs LM007/LM008 and does not run the analyzers.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"lowmemroute/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(argv []string) int {
	fs := flag.NewFlagSet("lowmemlint", flag.ContinueOnError)
	var (
		jsonOut   = fs.Bool("json", false, "emit the "+lint.ReportSchema+" JSON report")
		graphJSON = fs.String("graph", "", "write the protocol kind graph as JSON to this file and exit")
		graphDot  = fs.String("graph-dot", "", "write the protocol kind graph as Graphviz dot to this file and exit")
		enable    = fs.String("enable", "", "comma-separated analyzers to run (default: all)")
		disable   = fs.String("disable", "", "comma-separated analyzers to skip")
		list      = fs.Bool("list", false, "list analyzers and exit")
	)
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%s  %-16s %s\n", a.Code, a.Name, a.Doc)
		}
		return 0
	}

	analyzers, err := lint.Select(splitList(*enable), splitList(*disable))
	if err != nil {
		fmt.Fprintln(os.Stderr, "lowmemlint:", err)
		return 2
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./internal/..."}
	}
	dirs, err := lint.Expand(patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lowmemlint:", err)
		return 2
	}
	loader, err := lint.NewLoader(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "lowmemlint:", err)
		return 2
	}
	if *graphJSON != "" || *graphDot != "" {
		return writeGraph(loader, dirs, *graphJSON, *graphDot)
	}

	res, err := lint.RunDirs(loader, dirs, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lowmemlint:", err)
		return 2
	}

	report := lint.NewReport(res.Findings)
	if *jsonOut {
		if err := report.WriteJSON(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "lowmemlint:", err)
			return 2
		}
	} else {
		report.WriteText(os.Stdout)
	}
	if len(res.Findings) > 0 {
		return 1
	}
	return 0
}

// writeGraph builds the whole-repo protocol kind graph and writes the
// requested artifacts. Returns 0 on success, 2 on any failure.
func writeGraph(loader *lint.Loader, dirs []string, jsonPath, dotPath string) int {
	g, err := lint.BuildProtocolGraph(loader, dirs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lowmemlint:", err)
		return 2
	}
	write := func(path string, emit func(*os.File) error) int {
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lowmemlint:", err)
			return 2
		}
		if err := emit(f); err != nil {
			f.Close()
			fmt.Fprintln(os.Stderr, "lowmemlint:", err)
			return 2
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "lowmemlint:", err)
			return 2
		}
		return 0
	}
	if jsonPath != "" {
		if rc := write(jsonPath, func(f *os.File) error { return g.WriteJSON(f) }); rc != 0 {
			return rc
		}
		fmt.Printf("lowmemlint: wrote protocol graph (%d package(s)) to %s\n", len(g.Packages), jsonPath)
	}
	if dotPath != "" {
		if rc := write(dotPath, func(f *os.File) error { return g.WriteDot(f) }); rc != 0 {
			return rc
		}
		fmt.Printf("lowmemlint: wrote protocol graph dot to %s\n", dotPath)
	}
	return 0
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
