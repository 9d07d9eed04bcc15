// Package treeroute implements exact compact routing on trees, the first
// contribution of Elkin-Neiman (PODC 2018).
//
// Three constructions of the same Thorup-Zwick tree-routing scheme are
// provided:
//
//   - BuildCentralized: the classical sequential construction [TZ01b],
//     used as the correctness reference (and by centralized baselines).
//   - BuildDistributed: the paper's low-memory distributed construction
//     (Section 3 + Appendix A): O(1)-word tables, O(log n)-word labels,
//     O(log n) words of working memory per vertex, Õ(√n + D) rounds.
//   - BuildBaseline: the earlier EN16b/LPP16-style distributed construction
//     that materialises the virtual tree at portal vertices: O(log n)
//     tables, O(log² n) labels, Ω(√n) memory - the scheme the paper
//     improves upon (Table 2's first row).
//
// BuildCentralized and BuildDistributed produce the same Scheme: the
// [TZ01b] tables and labels, walked by internal/dataplane (CompileTree),
// the repository's one Thorup-Zwick forwarder. BuildBaseline produces a
// BaselineScheme, whose header-carrying rule (NextHopBaseline, built on
// NextHop) has its own walker, BaselineScheme.Route.
package treeroute

// LightEdge is a non-heavy tree edge (Parent, Child) recorded in a label.
type LightEdge struct {
	Parent, Child int
}

// Table is the O(1)-word routing table of one tree vertex: its DFS interval,
// its tree parent, and its heavy child. Exactly the table of [TZ01b].
type Table struct {
	In, Out int
	Parent  int // graph.NoVertex at the root
	Heavy   int // graph.NoVertex at leaves
}

// Words returns the table size in CONGEST RAM words.
func (t Table) Words() int { return 4 }

// Label is the O(log n)-word routing label of one tree vertex: its DFS entry
// time plus the light edges on its root path. Exactly the label of [TZ01b].
type Label struct {
	In    int
	Light []LightEdge
}

// Words returns the label size in CONGEST RAM words.
func (l Label) Words() int { return 1 + 2*len(l.Light) }

// Scheme is a complete tree-routing scheme: a table and a label per member
// vertex.
type Scheme struct {
	Root   int
	Tables map[int]Table
	Labels map[int]Label
}

// NextHop applies the Thorup-Zwick forwarding rule at vertex self: deliver
// if the target is self; go to the parent if the target is outside self's
// subtree; follow the recorded light edge out of self if the target's label
// names one; otherwise descend to the heavy child.
func NextHop(self int, tab Table, target Label) (next int, arrived bool) {
	if target.In == tab.In {
		return self, true
	}
	if target.In < tab.In || target.In > tab.Out {
		return tab.Parent, false
	}
	for _, e := range target.Light {
		if e.Parent == self {
			return e.Child, false
		}
	}
	return tab.Heavy, false
}

// MaxTableWords returns the largest table size in words.
func (s *Scheme) MaxTableWords() int {
	mx := 0
	for _, t := range s.Tables {
		if w := t.Words(); w > mx {
			mx = w
		}
	}
	return mx
}

// MaxLabelWords returns the largest label size in words.
func (s *Scheme) MaxLabelWords() int {
	mx := 0
	for _, l := range s.Labels {
		if w := l.Words(); w > mx {
			mx = w
		}
	}
	return mx
}
