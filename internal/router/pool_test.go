package router

import (
	"testing"

	"lowmemroute/internal/dataplane"
)

// TestWithQueueDepth checks the option plumbs through (a depth-1 network
// still delivers) and rejects non-positive depths.
func TestWithQueueDepth(t *testing.T) {
	s, g := buildScheme(t, 40, 2, 3)
	net := New(dataplane.Compile(s.Scheme), WithQueueDepth(1))
	defer net.Close()
	for u := 0; u < g.N(); u += 7 {
		for v := 0; v < g.N(); v += 5 {
			if _, err := net.Send(u, v); err != nil {
				t.Fatalf("depth-1 send %d->%d: %v", u, v, err)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("WithQueueDepth(0) should panic")
		}
	}()
	New(dataplane.Compile(s.Scheme), WithQueueDepth(0))
}

// TestPooledPathsStayIntact pins the pool-recycling contract: the Path a
// delivery hands out must not be clobbered when its packet (and trace
// buffer) is reused by later sends.
func TestPooledPathsStayIntact(t *testing.T) {
	s, _ := buildScheme(t, 60, 2, 5)
	net := New(dataplane.Compile(s.Scheme))
	defer net.Close()

	type sent struct {
		u, v int
		path []int
	}
	var first []sent
	for u := 0; u < 10; u++ {
		for v := 50; v < 60; v++ {
			d, err := net.Send(u, v)
			if err != nil {
				t.Fatalf("send %d->%d: %v", u, v, err)
			}
			first = append(first, sent{u, v, d.Path})
		}
	}
	// Churn the pool: every one of these sends reuses recycled packets.
	for i := 0; i < 500; i++ {
		if _, err := net.Send(i%60, (i*7+3)%60); err != nil {
			t.Fatalf("churn send: %v", err)
		}
	}
	for _, f := range first {
		want, _, err := net.tab.Route(f.u, f.v)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) != len(f.path) {
			t.Fatalf("%d->%d: held path %v, scheme walk %v", f.u, f.v, f.path, want)
		}
		for i := range want {
			if f.path[i] != want[i] {
				t.Fatalf("%d->%d: held path %v was clobbered (want %v)", f.u, f.v, f.path, want)
			}
		}
	}
}
