package lowmemroute

import (
	"math"
	"testing"
)

// TestDataPlaneEquivalence pins the facade contract: Build compiles the
// scheme once and Compile serves that same table, and every ordered pair's
// walk is checked against the network alone — a chain of links from src to
// dst, its weight bit-equal to their weights summed in path order, within
// the 4k-3+0.5 stretch bound of the exact distance. Lookup's first hop
// must be the walk's second node, and Rebuild keeps serving. The
// tree-path oracle for the walk itself is internal/dataplane's.
func TestDataPlaneEquivalence(t *testing.T) {
	net, err := Generate(ErdosRenyi, 72, 5)
	if err != nil {
		t.Fatal(err)
	}
	const k = 3
	s, err := Build(net, Config{K: k, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	dp, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	if dp.eng.Table() != s.inner.Compiled() {
		t.Fatal("Compile recompiled instead of serving Build's table")
	}
	exact := net.g.AllPairs()
	bound := float64(4*k-3) + 0.5
	var buf []int
	for u := 0; u < net.Nodes(); u++ {
		for v := 0; v < net.Nodes(); v++ {
			p, err := s.Route(u, v)
			if err != nil {
				t.Fatalf("%d->%d: %v", u, v, err)
			}
			if p.Nodes[0] != u || p.Nodes[len(p.Nodes)-1] != v {
				t.Fatalf("%d->%d: walk %v has the wrong endpoints", u, v, p.Nodes)
			}
			var sum float64
			for i := 1; i < len(p.Nodes); i++ {
				w, ok := net.g.EdgeWeight(p.Nodes[i-1], p.Nodes[i])
				if !ok {
					t.Fatalf("%d->%d: hop {%d,%d} is not a link", u, v, p.Nodes[i-1], p.Nodes[i])
				}
				sum += w
			}
			if math.Float64bits(p.Weight) != math.Float64bits(sum) {
				t.Fatalf("%d->%d: weight %v, link sum %v", u, v, p.Weight, sum)
			}
			if u != v && p.Weight/exact[u][v] > bound {
				t.Fatalf("%d->%d: stretch %v exceeds %v", u, v, p.Weight/exact[u][v], bound)
			}
			var w float64
			buf, w, err = s.RouteAppend(u, v, buf[:0])
			if err != nil || w != p.Weight || len(buf) != len(p.Nodes) {
				t.Fatalf("%d->%d: RouteAppend %v (%v, err %v)", u, v, buf, w, err)
			}
		}
	}

	// Lookup/LookupBatch surface: the first hop of every routable pair must
	// be the second node of the full walk.
	dst := make([]Label, net.Nodes())
	for i := range dst {
		dst[i] = Label(i)
	}
	out := make([]NextHop, net.Nodes())
	if got := dp.LookupBatch(3, dst, out); got != net.Nodes() {
		t.Fatalf("LookupBatch made %d decisions", got)
	}
	for v, hop := range out {
		p, err := dp.Route(3, v)
		if err != nil {
			if hop.Next != -1 {
				t.Fatalf("3->%d: unroutable pair got hop %+v", v, hop)
			}
			continue
		}
		if v == 3 {
			if !hop.Arrived {
				t.Fatalf("self lookup: %+v", hop)
			}
			continue
		}
		if int(hop.Next) != p.Nodes[1] {
			t.Fatalf("3->%d: first hop %d, walk %v", v, hop.Next, p.Nodes)
		}
	}

	dp.Rebuild()
	if p, err := dp.Route(0, net.Nodes()-1); err == nil && len(p.Nodes) == 0 {
		t.Fatal("rebuilt data plane returned an empty path")
	}
}

// TestDataPlaneEquivalenceUnderCrash serves the scheme (the router now
// forwards from the compiled table), crashes a transit node, and checks
// that every pair whose clean compiled walk avoids the victim still
// delivers exactly that walk, undegraded — the compiled fast path and the
// degraded-mode machinery interfere with each other not at all.
func TestDataPlaneEquivalenceUnderCrash(t *testing.T) {
	net, err := Generate(ErdosRenyi, 64, 9)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Build(net, Config{K: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	dp, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	pn := s.Serve()
	defer pn.Close()

	// Pick the transit node that appears in the most clean walks.
	hits := make([]int, net.Nodes())
	for u := 0; u < net.Nodes(); u++ {
		for v := 0; v < net.Nodes(); v++ {
			p, err := dp.Route(u, v)
			if err != nil {
				continue
			}
			for _, x := range p.Nodes[1:max(len(p.Nodes)-1, 1)] {
				hits[x]++
			}
		}
	}
	victim := 0
	for v, h := range hits {
		if h > hits[victim] {
			victim = v
		}
	}
	pn.Crash(victim)

	checked := 0
	for u := 0; u < net.Nodes() && checked < 300; u++ {
		for v := 0; v < net.Nodes() && checked < 300; v++ {
			if u == victim || v == victim {
				continue
			}
			want, err := dp.Route(u, v)
			if err != nil {
				continue
			}
			touches := false
			for _, x := range want.Nodes {
				if x == victim {
					touches = true
					break
				}
			}
			if touches {
				continue
			}
			d, err := pn.Send(u, v)
			if err != nil {
				t.Fatalf("send %d->%d with %d down: %v", u, v, victim, err)
			}
			if d.Degraded {
				t.Fatalf("send %d->%d degraded though its walk avoids %d", u, v, victim)
			}
			if len(d.Nodes) != len(want.Nodes) {
				t.Fatalf("send %d->%d path %v, compiled walk %v", u, v, d.Nodes, want.Nodes)
			}
			for i := range want.Nodes {
				if d.Nodes[i] != want.Nodes[i] {
					t.Fatalf("send %d->%d path %v diverges from compiled walk %v", u, v, d.Nodes, want.Nodes)
				}
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no victim-avoiding pairs found")
	}
}

// TestOutOfRangeEndpoints pins that an endpoint outside [0, Nodes()) fails
// loudly and never panics: Route and RouteAppend return an error on both
// the scheme and its data plane, and Lookup/LookupBatch return the
// no-route decision.
func TestOutOfRangeEndpoints(t *testing.T) {
	net, err := Generate(ErdosRenyi, 30, 3)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Build(net, Config{K: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	dp, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	n := net.Nodes()
	noRoute := NextHop{Next: -1, Root: -1, Entry: -1}
	for _, p := range [][2]int{{0, n}, {n, 0}, {-1, 0}, {0, -1}, {n, n}} {
		if _, err := s.Route(p[0], p[1]); err == nil {
			t.Errorf("Scheme.Route%v: no error", p)
		}
		if _, _, err := s.RouteAppend(p[0], p[1], nil); err == nil {
			t.Errorf("Scheme.RouteAppend%v: no error", p)
		}
		if _, err := dp.Route(p[0], p[1]); err == nil {
			t.Errorf("DataPlane.Route%v: no error", p)
		}
		if _, _, err := dp.RouteAppend(p[0], p[1], nil); err == nil {
			t.Errorf("DataPlane.RouteAppend%v: no error", p)
		}
		if hop := dp.Lookup(p[0], Label(p[1])); hop != noRoute {
			t.Errorf("Lookup%v = %+v, want the no-route decision", p, hop)
		}
		out := make([]NextHop, 1)
		if dp.LookupBatch(p[0], []Label{Label(p[1])}, out); out[0] != noRoute {
			t.Errorf("LookupBatch%v = %+v, want the no-route decision", p, out[0])
		}
	}
}
