package router

import (
	"math/rand"
	"testing"

	"lowmemroute/internal/dataplane"
)

// crashTarget picks an intermediate vertex of some clean route so crashing it
// forces at least one reroute. Returns the vertex and a (src, dst) pair whose
// clean path runs through it.
func crashTarget(t *testing.T, net *Network, n int, seed int64) (victim, src, dst int) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	for trial := 0; trial < 500; trial++ {
		u, v := r.Intn(n), r.Intn(n)
		if u == v {
			continue
		}
		d, err := net.Send(u, v)
		if err != nil {
			t.Fatalf("clean send %d->%d: %v", u, v, err)
		}
		if len(d.Path) >= 3 {
			return d.Path[len(d.Path)/2], u, v
		}
	}
	t.Fatal("no route with an intermediate vertex found")
	return 0, 0, 0
}

func TestCrashedNextHopReroutes(t *testing.T) {
	s, g := buildScheme(t, 100, 3, 11)
	net := New(dataplane.Compile(s.Scheme))
	defer net.Close()

	// Route a batch of random pairs clean, crash the most-used intermediate
	// vertex, and resend exactly the pairs whose clean routes traversed it:
	// each of those packets now meets the crash at some hop.
	r := rand.New(rand.NewSource(12))
	type pair struct{ u, v int }
	through := map[int][]pair{}
	count := map[int]int{}
	for trial := 0; trial < 400; trial++ {
		u, v := r.Intn(g.N()), r.Intn(g.N())
		if u == v {
			continue
		}
		d, err := net.Send(u, v)
		if err != nil {
			t.Fatalf("clean send %d->%d: %v", u, v, err)
		}
		for _, x := range d.Path[1 : len(d.Path)-1] {
			through[x] = append(through[x], pair{u, v})
			count[x]++
		}
	}
	// A crashed high-level pivot can be unavoidable (every fallback tree is
	// rooted at it), so pick the busiest transit vertex that is not a pivot
	// of any level >= 1 label entry.
	pivot := map[int]bool{}
	for _, lab := range s.Scheme.Labels {
		for _, e := range lab.Entries {
			if e.Level >= 1 {
				pivot[e.Root] = true
			}
		}
	}
	victim, best := -1, 0
	for x, c := range count {
		if c > best && !pivot[x] {
			victim, best = x, c
		}
	}
	if victim < 0 {
		t.Fatal("no non-pivot intermediate vertex found")
	}
	net.Crash(victim)

	degraded, failed := 0, 0
	for _, pr := range through[victim] {
		d, err := net.Send(pr.u, pr.v)
		if err != nil {
			failed++ // no fallback tree from some hop: a clean failure
			continue
		}
		if last := d.Path[len(d.Path)-1]; last != pr.v {
			t.Fatalf("send %d->%d ended at %d", pr.u, pr.v, last)
		}
		for _, x := range d.Path {
			if x == victim {
				t.Fatalf("send %d->%d routed through crashed %d: %v", pr.u, pr.v, x, d.Path)
			}
		}
		if d.Degraded {
			if d.Reroutes < 1 {
				t.Fatalf("degraded delivery with %d reroutes", d.Reroutes)
			}
			degraded++
		}
	}
	if degraded == 0 {
		t.Fatalf("none of the %d pairs through crashed %d was rerouted (%d failed)",
			len(through[victim]), victim, failed)
	}
}

func TestCrashedDestinationFails(t *testing.T) {
	s, _ := buildScheme(t, 60, 2, 21)
	net := New(dataplane.Compile(s.Scheme))
	defer net.Close()
	net.Crash(17)
	if _, err := net.Send(3, 17); err == nil {
		t.Fatal("send to crashed destination should fail")
	}
}

func TestCrashedSourceFails(t *testing.T) {
	s, _ := buildScheme(t, 60, 2, 22)
	net := New(dataplane.Compile(s.Scheme))
	defer net.Close()
	net.Crash(3)
	if _, err := net.Send(3, 17); err == nil {
		t.Fatal("send from crashed source should fail")
	}
}

func TestRecoverRestoresCleanRoutes(t *testing.T) {
	s, g := buildScheme(t, 100, 3, 23)
	net := New(dataplane.Compile(s.Scheme))
	defer net.Close()
	victim, src, dst := crashTarget(t, net, g.N(), 24)
	clean, err := net.Send(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	net.Crash(victim)
	if !net.Down(victim) {
		t.Fatal("Down should report the crash")
	}
	net.Recover(victim)
	if net.Down(victim) {
		t.Fatal("Down should clear after Recover")
	}
	d, err := net.Send(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if d.Degraded {
		t.Fatal("recovered network should not degrade")
	}
	if len(d.Path) != len(clean.Path) {
		t.Fatalf("recovered path %v differs from clean %v", d.Path, clean.Path)
	}
}

func TestCrashRecoverConcurrentWithSends(t *testing.T) {
	s, g := buildScheme(t, 80, 3, 25)
	net := New(dataplane.Compile(s.Scheme))
	defer net.Close()
	victim, _, _ := crashTarget(t, net, g.N(), 26)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			net.Crash(victim)
			net.Recover(victim)
		}
	}()
	r := rand.New(rand.NewSource(27))
	for i := 0; i < 100; i++ {
		u, v := r.Intn(g.N()), r.Intn(g.N())
		if u == victim || v == victim {
			continue
		}
		d, err := net.Send(u, v)
		if err != nil {
			continue // packet caught mid-crash: a clean failure
		}
		if last := d.Path[len(d.Path)-1]; last != v {
			t.Fatalf("send %d->%d ended at %d", u, v, last)
		}
	}
	<-done
}
