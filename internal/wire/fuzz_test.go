package wire

import (
	"bytes"
	"encoding/hex"
	"math/rand"
	"testing"

	"lowmemroute/internal/graph"
	"lowmemroute/internal/tz"
)

// fuzzSeeds returns the wire encodings of every label and table of an ER
// n=64 scheme: realistic inputs for the fuzzer to mutate.
func fuzzSeeds(f *testing.F) (labels, tables [][]byte) {
	f.Helper()
	g, err := graph.Generate(graph.FamilyErdosRenyi, 64, rand.New(rand.NewSource(1)))
	if err != nil {
		f.Fatal(err)
	}
	s, err := tz.Build(g, tz.Options{K: 3, Seed: 2})
	if err != nil {
		f.Fatal(err)
	}
	for v := range s.Labels {
		labels = append(labels, EncodeLabel(s.Labels[v]))
		tables = append(tables, EncodeTable(s.Tables[v]))
	}
	return labels, tables
}

// addHex seeds the corpus with inputs that once decoded to something
// re-encoding differently.
func addHex(f *testing.F, inputs ...string) {
	f.Helper()
	for _, h := range inputs {
		b, err := hex.DecodeString(h)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
}

// FuzzDecodeLabel checks that DecodeLabel accepts only canonical
// encodings: whatever it decodes re-encodes to the same bytes.
func FuzzDecodeLabel(f *testing.F) {
	labels, _ := fuzzSeeds(f)
	for _, b := range labels {
		f.Add(b)
	}
	addHex(f, "3001303030") // membership flag 0x30
	f.Fuzz(func(t *testing.T, b []byte) {
		l, err := DecodeLabel(b)
		if err != nil {
			return
		}
		if got := EncodeLabel(l); !bytes.Equal(got, b) {
			t.Fatalf("DecodeLabel(%x) re-encodes as %x", b, got)
		}
	})
}

// FuzzDecodeTable checks that DecodeTable accepts only canonical
// encodings: whatever it decodes re-encodes to the same bytes.
func FuzzDecodeTable(f *testing.F) {
	_, tables := fuzzSeeds(f)
	for _, b := range tables {
		f.Add(b)
	}
	addHex(f,
		"0130f200303030",         // overlong varint
		"0201010101010101010101", // duplicate center
		"0202010101010101010101", // descending centers
	)
	f.Fuzz(func(t *testing.T, b []byte) {
		tab, err := DecodeTable(b)
		if err != nil {
			return
		}
		if got := EncodeTable(tab); !bytes.Equal(got, b) {
			t.Fatalf("DecodeTable(%x) re-encodes as %x", b, got)
		}
	})
}
