package treeroute_test

// Tree schemes are walked by the repository's one Thorup-Zwick forwarder,
// the compiled dataplane.Table; these helpers compile a scheme for
// treeroute.VerifyExact. They live in the external test package because
// dataplane imports treeroute.

import (
	"lowmemroute/internal/dataplane"
	"lowmemroute/internal/graph"
	"lowmemroute/internal/treeroute"
)

// compiledWalk compiles ts as a one-tree cluster forest over host and
// returns the table's walk.
func compiledWalk(ts *treeroute.Scheme, tr *graph.Tree, host *graph.CSR) func(src, dst int) ([]int, error) {
	tab := dataplane.CompileTree(ts, tr, host)
	return func(src, dst int) ([]int, error) {
		path, _, err := tab.Route(src, dst)
		return path, err
	}
}

// treeHost is a host network made of the tree's own edges at unit weight,
// over the tree's host vertex ids: the host for a test that has no other.
func treeHost(tr *graph.Tree) *graph.CSR {
	g := graph.New(tr.HostSize())
	for _, v := range tr.Members() {
		if p := tr.Parent(v); p != graph.NoVertex {
			g.MustAddEdge(v, p, 1)
		}
	}
	return graph.FromGraph(g)
}
