// Package metrics implements the evaluation harness: stretch measurement,
// size/memory summaries, text table rendering, and the experiment drivers
// that regenerate the paper's Table 1 (general-graph routing schemes) and
// Table 2 (tree-routing schemes), plus the supplementary sweeps indexed in
// DESIGN.md (E3-E7).
package metrics

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"lowmemroute/internal/graph"
	"lowmemroute/internal/obs"
)

// WeightedRouter routes between two vertices and reports the weighted length
// of the walk: core.Scheme, a compiled dataplane.Table, and EN16b.
type WeightedRouter interface {
	Route(src, dst int) ([]int, float64, error)
}

// AppendRouter is the buffer-reusing variant of WeightedRouter. Routers that
// implement it (core.Scheme and the compiled dataplane.Table it walks) let
// the measurement loops below route thousands of pairs without a per-query
// path allocation.
type AppendRouter interface {
	RouteAppend(src, dst int, path []int) ([]int, float64, error)
}

// routeFunc adapts a router to a single buffer-threading call shape,
// preferring RouteAppend when available.
func routeFunc(router WeightedRouter) func(src, dst int, path []int) ([]int, float64, error) {
	if ar, ok := router.(AppendRouter); ok {
		return ar.RouteAppend
	}
	return func(src, dst int, _ []int) ([]int, float64, error) {
		return router.Route(src, dst)
	}
}

// StretchStats summarises routing stretch over a set of sampled pairs.
type StretchStats struct {
	Max, Avg float64
	Pairs    int
	Failures int
}

// MeasureStretch routes k sampled pairs and compares against exact
// distances computed by Dijkstra on demand.
func MeasureStretch(g *graph.Graph, router WeightedRouter, pairs int, r *rand.Rand) StretchStats {
	return MeasureStretchObserved(g, router, pairs, r, nil)
}

// MeasureStretchObserved is MeasureStretch with per-lookup latency
// recording: the wall time of each router.Route call lands in lat
// (recorded in nanoseconds; register the histogram with scale 1e-9 to
// expose it as route_lookup_seconds). A nil histogram skips the clock
// reads entirely, so the unobserved path measures nothing it didn't
// before.
func MeasureStretchObserved(g *graph.Graph, router WeightedRouter, pairs int, r *rand.Rand, lat *obs.Histogram) StretchStats {
	var st StretchStats
	n := g.N()
	if n < 2 {
		return st
	}
	exactCache := make(map[int][]float64)
	exact := func(u int) []float64 {
		if d, ok := exactCache[u]; ok {
			return d
		}
		d := g.Dijkstra(u).Dist
		exactCache[u] = d
		return d
	}
	route := routeFunc(router)
	var buf []int
	var sum float64
	for i := 0; i < pairs; i++ {
		u, v := r.Intn(n), r.Intn(n)
		if u == v {
			continue
		}
		var began time.Time
		if lat != nil {
			began = time.Now()
		}
		var w float64
		var err error
		buf, w, err = route(u, v, buf[:0])
		if lat != nil {
			lat.Record(int64(time.Since(began)))
		}
		if err != nil {
			st.Failures++
			continue
		}
		d := exact(u)[v]
		if d <= 0 || d == graph.Infinity {
			continue
		}
		s := w / d
		if s > st.Max {
			st.Max = s
		}
		sum += s
		st.Pairs++
	}
	if st.Pairs > 0 {
		st.Avg = sum / float64(st.Pairs)
	}
	return st
}

// StretchHistogram routes sampled pairs and buckets stretch values; bucket i
// covers [1 + i*width, 1 + (i+1)*width). Pairs the router fails on are
// counted and skipped (like MeasureStretch) rather than aborting the whole
// measurement; the failure count is returned alongside the histogram.
func StretchHistogram(g *graph.Graph, router WeightedRouter, pairs, buckets int, width float64, r *rand.Rand) ([]int, int) {
	hist := make([]int, buckets)
	failures := 0
	n := g.N()
	route := routeFunc(router)
	var buf []int
	for i := 0; i < pairs; i++ {
		u, v := r.Intn(n), r.Intn(n)
		if u == v {
			continue
		}
		var w float64
		var err error
		buf, w, err = route(u, v, buf[:0])
		if err != nil {
			failures++
			continue
		}
		d := g.Dijkstra(u).Dist[v]
		if d <= 0 || d == graph.Infinity {
			continue
		}
		b := int((w/d - 1) / width)
		if b < 0 {
			b = 0
		}
		if b >= buckets {
			b = buckets - 1
		}
		hist[b]++
	}
	return hist, failures
}

// FormatTable renders rows as an aligned text table with a header rule.
func FormatTable(headers []string, rows [][]string) string {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(headers)
	rule := make([]string, len(headers))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	writeRow(rule)
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}

// FormatInt renders n with thousands separators (readability of round and
// message counts).
func FormatInt(n int64) string {
	s := fmt.Sprintf("%d", n)
	neg := strings.HasPrefix(s, "-")
	if neg {
		s = s[1:]
	}
	var parts []string
	for len(s) > 3 {
		parts = append([]string{s[len(s)-3:]}, parts...)
		s = s[:len(s)-3]
	}
	parts = append([]string{s}, parts...)
	out := strings.Join(parts, ",")
	if neg {
		out = "-" + out
	}
	return out
}
