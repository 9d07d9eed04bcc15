package lowmemroute

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"lowmemroute/internal/trace"
)

// telemetryGolden is the SHA-256 fingerprint of what one facade build
// exposes to an observer: the wall-stripped trace export, the cost report,
// and the deterministic Prometheus families.
type telemetryGolden struct {
	trace, report, prom string
}

// TestFacadeTelemetryGolden pins the telemetry the facade's builds emit
// when a Tracer, a Metrics registry and a fault plan are all attached. It
// covers the three entry points (Build, BuildTree, BuildTrees), so any
// change to how they wire the simulator shows up here.
func TestFacadeTelemetryGolden(t *testing.T) {
	net, err := Generate(ErdosRenyi, 96, 5)
	if err != nil {
		t.Fatal(err)
	}
	plan := &FaultPlan{Drop: 0.05, Delay: 2, Seed: 1}
	var trees []*Tree
	for _, root := range []int{0, 48} {
		tree, err := net.SpanningTree(root, "dfs", int64(root))
		if err != nil {
			t.Fatal(err)
		}
		trees = append(trees, tree)
	}

	cases := []struct {
		name  string
		build func(*Tracer, *Metrics) (any, error)
		want  telemetryGolden
	}{
		{"Build", func(tr *Tracer, m *Metrics) (any, error) {
			s, err := Build(net, Config{K: 2, Seed: 3, Trace: tr, Metrics: m, Faults: plan})
			if err != nil {
				return nil, err
			}
			return s.Report(), nil
		}, telemetryGolden{
			trace:  "3cfaa96e65addae7a75ff4ed9572df088519534aad6b1ca3ffbcf33867465900",
			report: "4e9e803841a63cc3dcea8cd90f51b75aabf52ccea2bcab14de1e1d911e0c50ab",
			prom:   "94a15d82aaedc124f40e8c94121495eb955027d849fbb405e434afb068c26af1",
		}},
		{"BuildTree", func(tr *Tracer, m *Metrics) (any, error) {
			s, err := BuildTree(net, trees[0], TreeConfig{Seed: 3, Trace: tr, Metrics: m, Faults: plan})
			if err != nil {
				return nil, err
			}
			return s.Report(), nil
		}, telemetryGolden{
			trace:  "dee1cabf6bd89f289b9cfc552864c3922e9150a85c0556dd3660d24c6360069b",
			report: "aa20295d9ec586bf0d84d9f252456a2f322bfca8c2895e1f8fdc4913a11cf181",
			prom:   "5882380a3bc08372c34b308cc635f554fabb8e3c7a68fb4bc954e81a6111053f",
		}},
		{"BuildTrees", func(tr *Tracer, m *Metrics) (any, error) {
			_, rep, err := BuildTrees(net, trees, TreeConfig{Seed: 3, Trace: tr, Metrics: m, Faults: plan})
			return rep, err
		}, telemetryGolden{
			trace:  "75fd6418e30207bb9847682eff3e1b84bef16c123a8fd9b4a2765e7d78a5f068",
			report: "cfdced8935f463f0571f2608c9ce74ba0f283e7bbd199718b8a00b9b3f6b358b",
			prom:   "bf6c733222b48cf0a89e2df01dc718981b73e4bdf4109416f65b680672a8ccc4",
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr, m := NewTracer(), NewMetrics()
			rep, err := tc.build(tr, m)
			if err != nil {
				t.Fatal(err)
			}
			got := telemetryGolden{
				trace:  hashStrippedTrace(t, tr),
				report: sha(fmt.Sprintf("%+v", rep)),
				prom:   sha(deterministicFamilies(t, m)),
			}
			if got != tc.want {
				t.Errorf("telemetry moved:\n got  %+v\n want %+v", got, tc.want)
			}
		})
	}
}

func sha(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

// hashStrippedTrace hashes the tracer's export with every host-measured
// field (wall clock, MemStats deltas) zeroed.
func hashStrippedTrace(t *testing.T, tr *Tracer) string {
	t.Helper()
	ex := tr.recorder().Export()
	ex.StripWall()
	var buf bytes.Buffer
	if err := trace.WriteExportJSON(&buf, ex); err != nil {
		t.Fatal(err)
	}
	return sha(buf.String())
}

// deterministicFamilies keeps the exposition lines of the families a
// build fixes exactly: the engine's round/message/word counters and the
// build-phase gauges (latency histograms and level gauges are excluded).
func deterministicFamilies(t *testing.T, m *Metrics) string {
	t.Helper()
	var buf bytes.Buffer
	if err := m.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	var keep strings.Builder
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		name := strings.TrimPrefix(strings.TrimPrefix(line, "# HELP "), "# TYPE ")
		for _, fam := range []string{"congest_rounds_total", "congest_messages_total", "congest_words_total", "build_phase"} {
			if strings.HasPrefix(name, fam) {
				keep.WriteString(line)
				keep.WriteByte('\n')
				break
			}
		}
	}
	return keep.String()
}
