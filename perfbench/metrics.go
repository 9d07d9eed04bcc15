package main

import (
	"fmt"
	"math"
	"sort"
)

// spec declares one metric: its unit and which direction is better. The two
// tables below are the benchmark's public surface; BENCHMARK.json lists the
// same names and units (TestBenchmarkJSONMatchesSpec keeps them in step).
type spec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd is what a user of the library sees, printed from the untraced
// run (--trace 0). Every workload emits every one of them.
var endToEnd = []spec{
	{"setup_s", "s", "lower"},
	{"build_s", "s", "lower"},
	{"lookups_per_s", "1/s", "higher"},
	{"lookup_p50_ns", "ns", "lower"},
	{"routes_per_s", "1/s", "higher"},
	{"route_p99_ns", "ns", "lower"},
}

// corePhases are the top-level construction spans reported per phase under
// core.*; hopset and tree-routing get their own module prefixes.
var corePhases = []string{"exact-pivots", "low-clusters", "approx-pivots", "approx-clusters"}

// treeSubPhases are the tree-routing sub-spans reported one by one; the
// three pointer-jumping global-* broadcasts are summed into treeroute.global.
var treeSubPhases = []string{"local-roots", "local-sizes", "sizes-down", "local-light", "light-down", "local-dfs", "shifts-down"}

// topSpans is the full set of top-level spans core.Build opens, in order.
var topSpans = []string{"exact-pivots", "low-clusters", "hopset", "approx-pivots", "approx-clusters", "tree-routing"}

// perLayer is the per-module attribution, printed from the traced run
// (--trace 1) plus calls timed from outside. Every workload emits every one
// of them.
var perLayer = buildPerLayer()

func buildPerLayer() []spec {
	out := []spec{
		{"graph.generate_s", "s", "lower"},
		{"graph.csr_bytes", "bytes", "lower"},
		{"congest.boot_s", "s", "lower"},
		{"congest.rounds", "count", "lower"},
		{"congest.messages", "count", "lower"},
		{"congest.words", "words", "lower"},
		{"congest.peak_mem_words", "words", "lower"},
		{"congest.ns_per_msg", "ns", "lower"},
		{"congest.us_per_round", "us", "lower"},
		{"congest.allocs_per_kmsg", "count", "lower"},
		{"congest.gc_cycles", "count", "lower"},
	}
	for _, p := range corePhases {
		out = append(out,
			spec{"core." + p + ".wall_s", "s", "lower"},
			spec{"core." + p + ".messages", "count", "lower"},
			spec{"core." + p + ".alloc_mb", "MB", "lower"})
	}
	out = append(out,
		spec{"core.unattributed_s", "s", "lower"},
		spec{"hopset.wall_s", "s", "lower"},
		spec{"hopset.messages", "count", "lower"},
		spec{"hopset.alloc_mb", "MB", "lower"},
		spec{"treeroute.wall_s", "s", "lower"},
		spec{"treeroute.messages", "count", "lower"},
		spec{"treeroute.alloc_mb", "MB", "lower"})
	for _, p := range treeSubPhases {
		out = append(out,
			spec{"treeroute." + p + ".wall_s", "s", "lower"},
			spec{"treeroute." + p + ".ns_per_msg", "ns", "lower"})
	}
	return append(out,
		spec{"treeroute.global.wall_s", "s", "lower"},
		spec{"treeroute.global.messages", "count", "lower"},
		spec{"dataplane.compile_s", "s", "lower"},
		spec{"dataplane.members", "count", "lower"},
		spec{"dataplane.batch_ns", "ns", "lower"},
		spec{"clusterroute.route_hops", "hops", "lower"},
		spec{"clusterroute.ns_per_hop", "ns", "lower"},
		spec{"clusterroute.max_table_words", "words", "lower"},
		spec{"clusterroute.max_label_words", "words", "lower"},
		spec{"clusterroute.stretch_max", "ratio", "lower"},
		spec{"trace.overhead_frac", "ratio", "lower"},
	)
}

// extras are printed and kept in the record but are not in the final
// contract line. The checkpoint round and resume run on build-er alone.
// peak_rss_mb and lookup_p99_ns are measured everywhere but too noisy on a
// shared host to gate (README.md has the numbers): the peak follows how far
// the concurrent GC falls behind a build's allocation, and the p99 of
// 20-µs lookup calls follows hypervisor interruptions.
var extras = []spec{
	{"peak_rss_mb", "MB", "lower"},
	{"lookup_p99_ns", "ns", "lower"},
	{"resume_s", "s", "lower"},
	{"trace.ckpt_bytes", "bytes", "lower"},
	{"trace.ckpt_read_s", "s", "lower"},
	{"trace.ckpt_write_s", "s", "lower"},
	{"trace.ckpt_marks_s", "s", "lower"},
	{"fail_ratio", "ratio", "lower"},
}

// unitOf returns the declared unit of a metric name.
func unitOf(name string) (string, bool) {
	for _, tab := range [][]spec{endToEnd, perLayer, extras} {
		for _, s := range tab {
			if s.Name == name {
				return s.Unit, true
			}
		}
	}
	return "", false
}

// median returns the median of xs (0 for none). xs is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for none). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// metricSet accumulates a run's metric values by name.
type metricSet map[string]float64

// check returns the names of tab that m lacks, and the names m holds that
// no table declares.
func (m metricSet) check(tab []spec) (missing, undeclared []string) {
	for _, s := range tab {
		if _, ok := m[s.Name]; !ok {
			missing = append(missing, s.Name)
		}
	}
	for name := range m {
		if _, ok := unitOf(name); !ok {
			undeclared = append(undeclared, name)
		}
	}
	sort.Strings(undeclared)
	return missing, undeclared
}

func secs(ns int64) float64 { return float64(ns) / 1e9 }

func mb(bytes int64) float64 { return float64(bytes) / 1e6 }

// ratio divides, reporting the numerator itself when the base is zero (a
// phase that sent no messages costs its whole wall per "message").
func ratio(num, den float64) float64 {
	if den == 0 {
		return num
	}
	return num / den
}

func fmtValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.6g", v)
}
