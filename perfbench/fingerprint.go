package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strings"
)

// fingerprint identifies the host and configuration a result was measured
// under. Results are comparable only when every field but Seed matches.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	Workload   string `json:"workload"`
	Shards     int    `json:"shards"`
	Trace      int    `json:"trace"`
	Seed       int64  `json:"seed"`
}

func hostFingerprint(w workload, seed int64, traced bool) fingerprint {
	fp := fingerprint{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		Workload:   w.Name,
		Shards:     w.Shards,
		Seed:       seed,
	}
	if traced {
		fp.Trace = 1
	}
	return fp
}

// cpuModel reads the CPU model name from /proc/cpuinfo ("unknown" where
// that is unavailable).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// mismatches lists the fields on which two fingerprints differ. Fields that
// change what was measured or where (host, toolchain, workload, shards,
// tracing) are hard mismatches; a different seed only changes the inputs
// and is reported as soft.
func mismatches(a, b fingerprint) (hard, soft []string) {
	diff := func(field string, x, y any) {
		if x != y {
			hard = append(hard, fmt.Sprintf("%s: %v vs %v", field, x, y))
		}
	}
	diff("cpu", a.CPU, b.CPU)
	diff("nproc", a.NumCPU, b.NumCPU)
	diff("gomaxprocs", a.GOMAXPROCS, b.GOMAXPROCS)
	diff("go", a.GoVersion, b.GoVersion)
	diff("os", a.OS, b.OS)
	diff("arch", a.Arch, b.Arch)
	diff("workload", a.Workload, b.Workload)
	diff("shards", a.Shards, b.Shards)
	diff("trace", a.Trace, b.Trace)
	if a.Seed != b.Seed {
		soft = append(soft, fmt.Sprintf("seed: %d vs %d", a.Seed, b.Seed))
	}
	return hard, soft
}
