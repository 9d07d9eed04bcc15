package lowmemroute

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// treeWalkHash is the SHA-256 over every ordered pair (u, v) with u, v in
// [-1, n]: Route's error flag, then (when it delivered) the path and the
// float64 bits of its weight; then the same for RouteAppend into a reused
// buffer. The out-of-range and non-member endpoints are part of the hash,
// so the error behaviour is pinned along with the walks.
func treeWalkHash(n int, ts *TreeScheme) string {
	h := sha256.New()
	var word [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(word[:], x)
		h.Write(word[:])
	}
	putPath := func(nodes []int) {
		put(uint64(len(nodes)))
		for _, v := range nodes {
			put(uint64(v))
		}
	}
	var buf []int
	for u := -1; u <= n; u++ {
		for v := -1; v <= n; v++ {
			p, err := ts.Route(u, v)
			if err != nil {
				h.Write([]byte{1})
			} else {
				h.Write([]byte{0})
				putPath(p.Nodes)
				put(math.Float64bits(p.Weight))
			}
			buf, err = ts.RouteAppend(u, v, buf[:0])
			if err != nil {
				h.Write([]byte{1})
			} else {
				h.Write([]byte{0})
				putPath(buf)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestTreeWalkGolden pins every tree walk of the facade's tree schemes —
// spanning trees of two kinds, two trees built together, and a tree over a
// subset of the nodes — including the error returned for out-of-range and
// non-member endpoints. The hashes were recorded with the map-backed tree
// walker that the compiled table replaced; they must never move.
func TestTreeWalkGolden(t *testing.T) {
	const n = 72
	net, err := Generate(ErdosRenyi, n, 11)
	if err != nil {
		t.Fatal(err)
	}
	spanning := func(root int, kind string, seed int64) *Tree {
		tree, err := net.SpanningTree(root, kind, seed)
		if err != nil {
			t.Fatal(err)
		}
		return tree
	}
	build := func(trees ...*Tree) []*TreeScheme {
		schemes, _, err := BuildTrees(net, trees, TreeConfig{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		return schemes
	}

	// The partial tree: the nodes within two BFS hops of node 0.
	bfs := spanning(0, "bfs", 5)
	parents := make([]int, n)
	for v := range parents {
		parents[v] = -1
		if d, u := 0, v; v != 0 {
			for ; u != 0; u = bfs.Parent(u) {
				d++
			}
			if d <= 2 {
				parents[v] = bfs.Parent(v)
			}
		}
	}
	partial, err := net.TreeFromParents(0, parents)
	if err != nil {
		t.Fatal(err)
	}
	if partial.Size() == 1 || partial.Size() == n {
		t.Fatalf("partial tree has %d of %d nodes", partial.Size(), n)
	}

	pair := build(spanning(3, "dfs", 7), spanning(40, "sssp", 8))
	cases := []struct {
		name string
		ts   *TreeScheme
		want string
	}{
		{"BuildTree/dfs", build(spanning(0, "dfs", 1))[0], "f58143c8d44e565cc6bfd9b6dcf8f7f0cc4bb5df8516d3875552c6d507dc5c18"},
		{"BuildTree/bfs", build(spanning(0, "bfs", 2))[0], "f78c62e147d69ce8cfba674176dcc19b9fbb981c11a915d65b497cdd4d0e767e"},
		{"BuildTrees/root=3", pair[0], "0388037d85f27747d7a0350aaaee3fa866874cb28aa1935f88bed2ce062b8656"},
		{"BuildTrees/root=40", pair[1], "51211065bdaf592bc1067f8e2e713ece4082dd43dab6aca4e0ae59d28cb6cec1"},
		{"BuildTree/partial", build(partial)[0], "a8c622d0fb32a69b765eb14f76387f5f17ad7f951bd1d560b5888e6aa86bfb37"},
	}
	for _, tc := range cases {
		if got := treeWalkHash(n, tc.ts); got != tc.want {
			t.Errorf("%s: tree walk hash %s, want %s", tc.name, got, tc.want)
		}
	}
}
