package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// compareMain compares two saved perfbench outputs metric by metric, for
// each workload both hold (an output of --workload all holds one record per
// workload). It refuses (exit 3) when, for any of those workloads, the
// fingerprints differ in anything but the seed.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare OLD NEW")
		return 2
	}
	var recs [2]map[string]record
	for i, path := range args {
		rs, err := readRecords(path)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench compare: %v\n", err)
			return 2
		}
		recs[i] = rs
	}
	var names []string
	for name := range recs[1] {
		if _, ok := recs[0][name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		fmt.Fprintln(stderr, "perfbench compare: the two files share no workload")
		return 2
	}
	refused := false
	for _, name := range names {
		hard, _ := mismatches(recs[0][name].Fingerprint, recs[1][name].Fingerprint)
		for _, h := range hard {
			fmt.Fprintf(stderr, "FINGERPRINT MISMATCH %s: %s\n", name, h)
			refused = true
		}
	}
	if refused {
		fmt.Fprintln(stderr, "perfbench compare: refusing to compare results from different hosts or configurations")
		return 3
	}
	for i, rs := range recs {
		for name := range rs {
			if _, ok := recs[1-i][name]; !ok {
				fmt.Fprintf(stdout, "note: %s is only in %s\n", name, args[i])
			}
		}
	}
	for _, name := range names {
		a, b := recs[0][name], recs[1][name]
		fmt.Fprintf(stdout, "== %s\n", name)
		_, soft := mismatches(a.Fingerprint, b.Fingerprint)
		for _, s := range soft {
			fmt.Fprintf(stdout, "note: different inputs (%s)\n", s)
		}
		keys := make([]string, 0, len(b.Metrics))
		for k := range b.Metrics {
			if _, ok := a.Metrics[k]; ok {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		for _, k := range keys {
			x, y := a.Metrics[k], b.Metrics[k]
			fmt.Fprintf(stdout, "%-40s %14s %14s %-6s %+8.2f%%\n",
				k, fmtValue(x.Value), fmtValue(y.Value), y.Unit, 100*ratio(y.Value-x.Value, x.Value))
		}
	}
	return 0
}

// readRecords returns every "perfbench record" line of a saved output, keyed
// by workload.
func readRecords(path string) (map[string]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return parseRecords(f, path)
}

func parseRecords(r io.Reader, name string) (map[string]record, error) {
	const prefix = "perfbench record "
	recs := map[string]record{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line, ok := strings.CutPrefix(sc.Text(), prefix)
		if !ok {
			continue
		}
		var rec record
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		w := rec.Fingerprint.Workload
		if _, dup := recs[w]; dup {
			return nil, fmt.Errorf("%s: two records for workload %s", name, w)
		}
		recs[w] = rec
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("%s: no perfbench record line", name)
	}
	return recs, nil
}
