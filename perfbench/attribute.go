package main

import (
	"strings"

	"lowmemroute/internal/trace"
)

// minCoverage is the share of a traced build that the top-level spans, and
// of the tree-routing span that its sub-spans, must account for. The check
// applies to builds of at least minCheckedWall seconds: below that the
// recorder's fixed cost per span boundary (a runtime.ReadMemStats each) is
// a visible share of the build, as on the tests' tiny instances.
const (
	minCoverage    = 0.95
	minCheckedWall = 0.1
)

// attribute turns one traced build's span tree into per-layer samples and
// checks that the spans account for the build's wall time.
func (r *runner) attribute(exp trace.Export, wall float64) {
	top := map[string]trace.SpanExport{}
	var covered float64
	for _, sp := range exp.Spans {
		top[sp.Name] = sp
		covered += secs(sp.WallNanos)
	}
	for _, name := range topSpans {
		if _, ok := top[name]; !r.checks.ok(ok, "attribution: traced build has no %q span", name) {
			return
		}
	}
	layer := func(prefix string, sp trace.SpanExport) {
		r.add(prefix+".wall_s", secs(sp.WallNanos))
		r.add(prefix+".alloc_mb", mb(sp.TotalAllocDelta))
		r.setExact(prefix+".messages", float64(sp.Messages))
	}
	for _, p := range corePhases {
		layer("core."+p, top[p])
	}
	layer("hopset", top["hopset"])
	tree := top["tree-routing"]
	layer("treeroute", tree)

	var treeCovered, globalWall float64
	var globalMsgs int64
	for _, sp := range tree.Children {
		w := secs(sp.WallNanos)
		treeCovered += w
		if strings.HasPrefix(sp.Name, "global-") {
			globalWall += w
			globalMsgs += sp.Messages
			continue
		}
		r.add("treeroute."+sp.Name+".wall_s", w)
		r.add("treeroute."+sp.Name+".ns_per_msg", ratio(float64(sp.WallNanos), float64(sp.Messages)))
	}
	r.add("treeroute.global.wall_s", globalWall)
	r.setExact("treeroute.global.messages", float64(globalMsgs))
	r.add("core.unattributed_s", wall-covered)

	if wall < minCheckedWall {
		return
	}
	r.checks.ok(covered >= minCoverage*wall,
		"attribution: top-level spans cover %.1f%% of the traced build", 100*covered/wall)
	treeWall := secs(tree.WallNanos)
	r.checks.ok(treeCovered >= minCoverage*treeWall,
		"attribution: tree-routing sub-spans cover %.1f%% of the span", 100*treeCovered/treeWall)
}
