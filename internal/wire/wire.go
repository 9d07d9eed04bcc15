// Package wire provides compact binary encodings for routing tables and
// labels: varint-coded, allocation-light, suitable for attaching labels to
// packet headers or persisting tables on memory-constrained devices. It
// turns the CONGEST-RAM "word" accounting of the rest of the repository
// into concrete byte sizes.
//
// Formats are self-delimiting and versionless by design (the schemes are
// rebuilt, not migrated); ints are encoded as unsigned varints with
// graph.NoVertex mapped to 0 and ids shifted by one. Decoding is strict:
// every input a decoder accepts is the exact encoding of what it returns
// (minimal varints, membership flags 0 or 1, table centers strictly
// ascending), so Encode(Decode(b)) == b.
package wire

import (
	"encoding/binary"
	"fmt"

	"lowmemroute/internal/clusterroute"
	"lowmemroute/internal/graph"
	"lowmemroute/internal/treeroute"
)

// putID appends an id (which may be graph.NoVertex) as a varint.
func putID(b []byte, id int) []byte {
	return binary.AppendUvarint(b, uint64(id+1)) // NoVertex (-1) -> 0
}

func getID(b []byte) (int, []byte, error) {
	v, b, err := getUvarint(b, "id")
	return int(v) - 1, b, err
}

// getUvarint decodes one minimal unsigned varint, returning the remainder.
// It rejects the overlong forms binary.Uvarint accepts (a multi-byte
// varint whose last byte is zero), which would re-encode shorter.
func getUvarint(b []byte, what string) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	switch {
	case n == 0:
		return 0, nil, fmt.Errorf("wire: truncated %s", what)
	case n < 0:
		return 0, nil, fmt.Errorf("wire: %s overflows 64 bits", what)
	case n > 1 && b[n-1] == 0:
		return 0, nil, fmt.Errorf("wire: overlong varint for %s", what)
	}
	return v, b[n:], nil
}

// AppendTreeTable encodes a tree-routing table.
func AppendTreeTable(b []byte, t treeroute.Table) []byte {
	b = putID(b, t.In)
	b = putID(b, t.Out)
	b = putID(b, t.Parent)
	b = putID(b, t.Heavy)
	return b
}

// DecodeTreeTable decodes a tree-routing table, returning the remainder.
func DecodeTreeTable(b []byte) (treeroute.Table, []byte, error) {
	var t treeroute.Table
	var err error
	if t.In, b, err = getID(b); err != nil {
		return t, nil, err
	}
	if t.Out, b, err = getID(b); err != nil {
		return t, nil, err
	}
	if t.Parent, b, err = getID(b); err != nil {
		return t, nil, err
	}
	if t.Heavy, b, err = getID(b); err != nil {
		return t, nil, err
	}
	return t, b, nil
}

// AppendTreeLabel encodes a tree-routing label.
func AppendTreeLabel(b []byte, l treeroute.Label) []byte {
	b = putID(b, l.In)
	b = binary.AppendUvarint(b, uint64(len(l.Light)))
	for _, e := range l.Light {
		b = putID(b, e.Parent)
		b = putID(b, e.Child)
	}
	return b
}

// DecodeTreeLabel decodes a tree-routing label, returning the remainder.
func DecodeTreeLabel(b []byte) (treeroute.Label, []byte, error) {
	var l treeroute.Label
	var err error
	if l.In, b, err = getID(b); err != nil {
		return l, nil, err
	}
	count, b, err := getUvarint(b, "light-edge count")
	if err != nil {
		return l, nil, err
	}
	if count > uint64(len(b)) { // each edge needs at least 2 bytes
		return l, nil, fmt.Errorf("wire: light-edge count %d exceeds payload", count)
	}
	for i := uint64(0); i < count; i++ {
		var e treeroute.LightEdge
		if e.Parent, b, err = getID(b); err != nil {
			return l, nil, err
		}
		if e.Child, b, err = getID(b); err != nil {
			return l, nil, err
		}
		l.Light = append(l.Light, e)
	}
	return l, b, nil
}

// EncodeLabel encodes a cluster-forest routing label (the destination
// address a packet carries).
func EncodeLabel(l clusterroute.Label) []byte {
	b := putID(nil, l.Vertex)
	b = binary.AppendUvarint(b, uint64(len(l.Entries)))
	for _, e := range l.Entries {
		b = binary.AppendUvarint(b, uint64(e.Level))
		b = putID(b, e.Root)
		if e.InCluster {
			b = append(b, 1)
			b = AppendTreeLabel(b, e.TreeLabel)
		} else {
			b = append(b, 0)
		}
	}
	return b
}

// DecodeLabel decodes a cluster-forest routing label.
func DecodeLabel(b []byte) (clusterroute.Label, error) {
	var l clusterroute.Label
	var err error
	if l.Vertex, b, err = getID(b); err != nil {
		return l, err
	}
	count, b, err := getUvarint(b, "entry count")
	if err != nil {
		return l, err
	}
	if count > uint64(len(b))+1 {
		return l, fmt.Errorf("wire: entry count %d exceeds payload", count)
	}
	for i := uint64(0); i < count; i++ {
		var e clusterroute.PivotEntry
		var lvl uint64
		if lvl, b, err = getUvarint(b, "level"); err != nil {
			return l, err
		}
		e.Level = int(lvl)
		if e.Root, b, err = getID(b); err != nil {
			return l, err
		}
		if len(b) == 0 {
			return l, fmt.Errorf("wire: truncated membership flag")
		}
		flag := b[0]
		b = b[1:]
		if flag > 1 {
			return l, fmt.Errorf("wire: membership flag %#x", flag)
		}
		if flag == 1 {
			e.InCluster = true
			if e.TreeLabel, b, err = DecodeTreeLabel(b); err != nil {
				return l, err
			}
		}
		l.Entries = append(l.Entries, e)
	}
	if len(b) != 0 {
		return l, fmt.Errorf("wire: %d trailing bytes", len(b))
	}
	return l, nil
}

// EncodeTable encodes a vertex's cluster-forest routing table (its
// persistent routing state). Entries are written in ascending center order
// for determinism.
func EncodeTable(t clusterroute.Table) []byte {
	b := binary.AppendUvarint(nil, uint64(len(t.Trees)))
	centers := make([]int, 0, len(t.Trees))
	for c := range t.Trees {
		centers = append(centers, c)
	}
	// Insertion sort: table fan-out is Õ(n^{1/k}), tiny.
	for i := 1; i < len(centers); i++ {
		for j := i; j > 0 && centers[j] < centers[j-1]; j-- {
			centers[j], centers[j-1] = centers[j-1], centers[j]
		}
	}
	for _, c := range centers {
		b = putID(b, c)
		b = AppendTreeTable(b, t.Trees[c])
	}
	return b
}

// DecodeTable decodes a cluster-forest routing table.
func DecodeTable(b []byte) (clusterroute.Table, error) {
	t := clusterroute.Table{Trees: make(map[int]treeroute.Table)}
	count, b, err := getUvarint(b, "tree count")
	if err != nil {
		return t, err
	}
	if count > uint64(len(b))+1 {
		return t, fmt.Errorf("wire: tree count %d exceeds payload", count)
	}
	prev := 0
	for i := uint64(0); i < count; i++ {
		var c int
		if c, b, err = getID(b); err != nil {
			return t, err
		}
		if c == graph.NoVertex {
			return t, fmt.Errorf("wire: invalid center")
		}
		if i > 0 && c <= prev {
			return t, fmt.Errorf("wire: center %d after %d: not strictly ascending", c, prev)
		}
		prev = c
		var tt treeroute.Table
		if tt, b, err = DecodeTreeTable(b); err != nil {
			return t, err
		}
		t.Trees[c] = tt
	}
	if len(b) != 0 {
		return t, fmt.Errorf("wire: %d trailing bytes", len(b))
	}
	return t, nil
}
