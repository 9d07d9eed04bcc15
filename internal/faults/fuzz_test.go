package faults

import (
	"reflect"
	"testing"
)

// FuzzParseSpec checks that every spec ParseSpec accepts survives a
// String round trip: the re-parsed plan renders the same, agrees on
// Empty, and is deeply equal when it injects anything.
func FuzzParseSpec(f *testing.F) {
	for _, s := range []string{
		"",
		"drop=0.05,delay=2,dup=0.01,seed=7,budget=8,crash=3,17,part=0,1,2",
		"crash=5@100-200,part=0@50-90,1,2",
		"budget=-1,seed=18446744073709551615",
		// Inputs that once failed the round trip.
		"drop=0",   // rendered "none", which did not parse
		"drop=NaN", // accepted; rendered as an empty spec
		"dup=NaN,delay=1",
		"crash=5@100-", // open window from a later round
		"part=3@7-,4",
		"crash=-1",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParseSpec(spec)
		if err != nil {
			return
		}
		str := p.String()
		q, err := ParseSpec(str)
		if err != nil {
			t.Fatalf("ParseSpec(%q) renders %q, which does not parse: %v", spec, str, err)
		}
		if got := q.String(); got != str {
			t.Fatalf("ParseSpec(%q) renders %q, re-parsed renders %q", spec, str, got)
		}
		if q.Empty() != p.Empty() {
			t.Fatalf("ParseSpec(%q): Empty %v, re-parsed %v", spec, p.Empty(), q.Empty())
		}
		if !p.Empty() && !reflect.DeepEqual(p, q) {
			t.Fatalf("ParseSpec(%q) = %+v, re-parsed from %q = %+v", spec, p, str, q)
		}
	})
}

// TestOpenWindowRoundTrip pins the rendering of a crash window that opens
// after round 0 and never clears, as the facade's FaultPlan can build it.
func TestOpenWindowRoundTrip(t *testing.T) {
	p := &Plan{
		Crashes:    []Crash{{Vertex: 5, From: 100, Until: Forever}},
		Partitions: []Partition{{Members: []int{1, 2}, From: 30, Until: 10}},
	}
	const want = "crash=5@100-,part=1@30-,2"
	if got := p.String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	q, err := ParseSpec(want)
	if err != nil {
		t.Fatal(err)
	}
	if q.Crashes[0] != p.Crashes[0] || q.Partitions[0].From != 30 || q.Partitions[0].Until != Forever {
		t.Fatalf("re-parsed %+v", q)
	}
}
