package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"lowmemroute/internal/congest"
	"lowmemroute/internal/graph"
	"lowmemroute/internal/trace"
	"lowmemroute/internal/wire"
)

// buildGolden is the SHA-256 fingerprint of one full construction: the
// wall-stripped trace export (every message, round and span), the
// per-vertex meter peaks, and every vertex's wire-encoded table and label.
type buildGolden struct {
	trace, peaks, tables, labels string
}

// TestBuildGolden pins the complete observable output of the distributed
// construction on four generator families, built through congest.New(g).
// The hashes must never move as a side effect of a refactor: any change
// here means the message stream, a meter, or the routing state changed.
func TestBuildGolden(t *testing.T) {
	cases := []struct {
		family graph.Family
		n, k   int
		want   buildGolden
	}{
		{graph.FamilyErdosRenyi, 120, 3, buildGolden{
			trace:  "4a6891a6ed5393d5b185e2368eaba7d90e4b26842025e21d5c4a9546ec83e540",
			peaks:  "d75038a6ae6f3d951184c6a9ae7c262ae424793d3755b808c8e15842a7daccab",
			tables: "e7be9eb4b3eefdd7ef691d534c61737d328cd929b71a07ba5235eacc2a59df18",
			labels: "3b88bade052668570a5222214c4fd21a7c8523027fa8a7f9ae6ebe3db1627b2d",
		}},
		{graph.FamilyGrid, 144, 2, buildGolden{
			trace:  "c143fa25adfb09d2daed3a6e9cfd7d07d4d39a171cb5012ba6fa6d62eca424ad",
			peaks:  "d272416f964b18d08521400d94dec203316e1e35f3a7d15abc9423a5f7d80e12",
			tables: "9cbc55ebb5b584da47e68766be0052e009a5db6ba8cf0992a8fbfb2f8de5dd38",
			labels: "be1c42ff4151b73dcaa1fbf46decc519dc6150e4d9f9dcb06674d238bff503b9",
		}},
		{graph.FamilyPowerLaw, 150, 2, buildGolden{
			trace:  "2e82163e5f53b02903379f595008d2e4ecd9758aabe28f353287e3db7f809398",
			peaks:  "660a991bc8039033f1cb6b8dc2b7584190306d58ca456ce829ddaf7e0a9a2c62",
			tables: "bcf1f400858e28941e1a1ac5616377873dc8dfe8c9fdb11fe8572b945aa993bc",
			labels: "ad6704aef43f974ec8fa785b6bbbdfacc704fe9490762bd0f1386ef6a8836022",
		}},
		{graph.FamilyGeometric, 128, 2, buildGolden{
			trace:  "ad252a46151b5a260f75cbc391971327e2cf7abc6d32a30780f1424b0080d4c3",
			peaks:  "ad5219f179c3b6cb43eaa08cbfe79b00da5d0fc351979e02e84f78944f5008e8",
			tables: "8699fcca7d685bb7fca32a3692d8bdf98d9225fc8877b56101ac41cdf671d369",
			labels: "d47e79d96569ce00a56a60b0006e2ae59cf80372cda509fb036040a61f2d2742",
		}},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%s/n=%d/k=%d", tc.family, tc.n, tc.k), func(t *testing.T) {
			g, err := graph.Generate(tc.family, tc.n, rand.New(rand.NewSource(7)))
			if err != nil {
				t.Fatal(err)
			}
			const seed = 42
			rec := trace.NewRecorder()
			sim := congest.New(g, congest.WithSeed(seed), congest.WithTrace(rec))
			s, err := Build(sim, Options{K: tc.k, Seed: seed, Epsilon: 0.01, Trace: rec})
			if err != nil {
				t.Fatal(err)
			}
			ex := rec.Export()
			ex.StripWall()
			var tr bytes.Buffer
			if err := trace.WriteExportJSON(&tr, ex); err != nil {
				t.Fatal(err)
			}
			var peaks, tables, labels []byte
			for v := 0; v < g.N(); v++ {
				peaks = binary.LittleEndian.AppendUint64(peaks, uint64(sim.Mem(v).Peak()))
				tables = appendFramed(tables, wire.EncodeTable(s.Tables[v]))
				labels = appendFramed(labels, wire.EncodeLabel(s.Labels[v]))
			}
			got := buildGolden{
				trace:  sha256Hex(tr.Bytes()),
				peaks:  sha256Hex(peaks),
				tables: sha256Hex(tables),
				labels: sha256Hex(labels),
			}
			if got != tc.want {
				t.Errorf("build fingerprint changed:\n got %+v\nwant %+v", got, tc.want)
			}
		})
	}
}

// TestGeometricStreamGolden pins every generator family's edge stream and
// its RNG consumption: the metrics experiments keep drawing from the same
// *rand.Rand after Generate, so the next Float64 must not move either.
// Generate and GenerateCSR share one family table, so this pins both.
func TestGeometricStreamGolden(t *testing.T) {
	cases := []struct {
		family    graph.Family
		wantEdges string
		wantNext  uint64
	}{
		{graph.FamilyGeometric, "57827e75af0dcaf7985558c1c45addbdebbc98afe95e5dbaa9d82cebb63059fd", 0x3fe6b5473cf8a49e},
		{graph.FamilyErdosRenyi, "866b7f1b6270f921ef669d01a11ab26950f5cc217ed3ae21485d783e7d38402b", 0x3f8f2428f4a76527},
		{graph.FamilyGrid, "da0d743302602c4363c5d1bf094944f203c987ba7338747e3bea32178173b1c3", 0x3fd1bda5833629df},
		{graph.FamilyTorus, "3d1417cd9e416efc2ae439b02b561407f60dc06352062f578733c78878e317c3", 0x3fec5b1db35e1481},
		{graph.FamilyPowerLaw, "3c7501c87a3bcc71f1ea417567fc4ade8633c340245d593b5f9084e946965980", 0x3fec69a811548360},
		{graph.FamilyHypercube, "c28d88611a238fc68cbcbc07f66ab5842eb604d794b08b7d8a21abc8427891ee", 0x3fe41744ab8ddbc4},
	}
	for _, tc := range cases {
		t.Run(string(tc.family), func(t *testing.T) {
			r := rand.New(rand.NewSource(7))
			g, err := graph.Generate(tc.family, 128, r)
			if err != nil {
				t.Fatal(err)
			}
			var stream []byte
			for u := 0; u < g.N(); u++ {
				for _, nb := range g.Neighbors(u) {
					stream = binary.LittleEndian.AppendUint32(stream, uint32(u))
					stream = binary.LittleEndian.AppendUint32(stream, uint32(nb.To))
					stream = binary.LittleEndian.AppendUint64(stream, math.Float64bits(nb.Weight))
				}
			}
			if got := sha256Hex(stream); got != tc.wantEdges {
				t.Errorf("%s n=128 adjacency stream hash %s, want %s", tc.family, got, tc.wantEdges)
			}
			if got := math.Float64bits(r.Float64()); got != tc.wantNext {
				t.Errorf("next Float64 after Generate has bits %#x, want %#x", got, tc.wantNext)
			}
		})
	}
}

func appendFramed(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
