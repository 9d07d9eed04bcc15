// Command perfbench measures the whole pipeline of the low-memory routing
// reproduction from outside the program: generate → CONGEST simulator boot
// → core.Build → dataplane.Compile → serve. It calls only each layer's
// public functions, times those calls, and prints every metric by name with
// its unit.
//
//	perfbench --workload build-er --seed 1 --seconds 30 --trace 0
//	perfbench --workload all --seed 1 --seconds 30 --trace 1
//	perfbench compare OLD.out NEW.out
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// alternates untraced builds with builds that attach a trace.Recorder, and
// reports the per-layer metrics from the recorder's phase spans. The last
// line of standard output is one JSON object: correct, attempted, failed
// and the metrics of the chosen level. See README.md for the workloads and
// which layer metric should move which end-to-end metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract line: the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// record is a run's full account, printed before the contract line: the
// fingerprint, every metric the run measured, sample counts and failures.
type record struct {
	Fingerprint fingerprint           `json:"fingerprint"`
	Seconds     int                   `json:"seconds"`
	Metrics     map[string]value      `json:"metrics"`
	Samples     map[string]sampleInfo `json:"samples"`
	Attempted   int64                 `json:"attempted"`
	Failed      int64                 `json:"failed"`
	Notes       []string              `json:"notes,omitempty"`
}

func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run, or \"all\"")
	seed := fs.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 30, "measurement budget per workload, in seconds")
	traceLvl := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	workdir := fs.String("workdir", filepath.Join(".bench_build", "perfbench"), "scratch directory for checkpoints")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || *traceLvl < 0 || *traceLvl > 1 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	var chosen []workload
	if *name == "all" {
		chosen = workloads
	} else if w, ok := findWorkload(*name); ok {
		chosen = []workload{w}
	} else {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have build-er, serve-zipf, all)\n", *name)
		return 2
	}
	gold, err := loadGoldens()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	runtime.GOMAXPROCS(gomaxprocs)

	var total result
	if len(chosen) == 1 {
		total, err = runWorkload(chosen[0], *seed, *seconds, *traceLvl == 1, *workdir, gold, stdout)
	} else {
		total, err = runAll(args, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// runAll runs every workload in a child process of its own, so each one's
// peak RSS is its own, passing their output through. The combined result
// prefixes each metric with its workload's name.
func runAll(args []string, stdout, stderr io.Writer) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	total := result{Correct: true, Metrics: map[string]value{}}
	for _, w := range workloads {
		child := append(append([]string(nil), args...), "--workload", w.Name)
		cmd := exec.Command(self, child...)
		cmd.Stderr = stderr
		outb, err := cmd.Output()
		if err != nil {
			return result{}, fmt.Errorf("%s: %w", w.Name, err)
		}
		lines := strings.Split(strings.TrimSpace(string(outb)), "\n")
		for _, l := range lines[:len(lines)-1] {
			fmt.Fprintln(stdout, l)
		}
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return result{}, fmt.Errorf("%s: %w", w.Name, err)
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, v := range res.Metrics {
			total.Metrics[w.Name+"."+k] = v
		}
	}
	return total, nil
}

// runWorkload runs one workload, prints its fingerprint, every measured
// metric and its record, and returns its contract result.
func runWorkload(w workload, seed int64, seconds int, traced bool, workdir string, gold goldenTable, out io.Writer) (result, error) {
	fp := hostFingerprint(w, seed, traced)
	printJSON(out, "perfbench fingerprint", fp)
	r := newRunner(w, seed, time.Duration(seconds)*time.Second, traced, workdir, gold)
	err := r.run()
	removeScratch(workdir, w.Name)
	if err != nil {
		return result{}, err
	}
	m := r.metrics()
	m["peak_rss_mb"] = peakRSSMB()
	m["fail_ratio"] = ratio(float64(r.checks.failed), float64(r.checks.attempted))

	rec := record{
		Fingerprint: fp, Seconds: seconds, Metrics: map[string]value{}, Samples: r.sampleInfos(),
		Attempted: r.checks.attempted, Failed: r.checks.failed, Notes: r.checks.notes,
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		unit, _ := unitOf(k)
		rec.Metrics[k] = value{m[k], unit}
		fmt.Fprintf(out, "perfbench metric %s %s %s\n", k, fmtValue(m[k]), unit)
	}
	for _, note := range r.checks.notes {
		fmt.Fprintf(out, "perfbench FAIL %s\n", note)
	}
	printJSON(out, "perfbench record", rec)

	level := endToEnd
	if traced {
		level = perLayer
	}
	if missing, undeclared := m.check(level); len(missing) > 0 || len(undeclared) > 0 {
		return result{}, fmt.Errorf("metrics missing %v, undeclared %v", missing, undeclared)
	}
	res := result{
		Correct:   r.checks.failed == 0 && r.checks.attempted > 0,
		Attempted: r.checks.attempted,
		Failed:    r.checks.failed,
		Metrics:   map[string]value{},
	}
	for _, s := range level {
		res.Metrics[s.Name] = value{m[s.Name], s.Unit}
	}
	return res, nil
}

func printJSON(out io.Writer, prefix string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // the printed types are plain data
	}
	fmt.Fprintf(out, "%s %s\n", prefix, b)
}

// removeScratch deletes the checkpoint files a workload wrote.
func removeScratch(workdir, name string) {
	base := filepath.Join(workdir, name+".ckpt")
	for _, p := range []string{base, base + ".copy"} {
		if err := os.Remove(p); err != nil && !errors.Is(err, os.ErrNotExist) {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		}
	}
}

// peakRSSMB is the process's peak resident set (getrusage ru_maxrss, the
// kernel's VmHWM), in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}
