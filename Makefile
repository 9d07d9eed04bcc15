GO ?= go

.PHONY: all build test vet lint lint-baseline lint-graph lint-graph-update race bench bench-json bench-diff bench-smoke bench-dataplane bench-dataplane-json perfbench-test metrics-smoke scale-smoke ckpt-smoke fuzz-wire table1 table2 sweeps demo fmt

all: build vet lint test race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Model-invariant static analysis (cmd/lowmemlint): CONGEST isolation, meter
# accounting, determinism, and wire-size honesty. The baseline file must stay
# empty unless an entry carries a written justification; stale entries fail
# the build.
lint:
	$(GO) vet ./cmd/lowmemlint ./internal/lint
	$(GO) run ./cmd/lowmemlint -baseline lint.baseline.json ./internal/...

# Regenerate the lint baseline from current findings. Only for grandfathering
# a finding that cannot be fixed in the same change — add a reason to every
# entry it writes.
lint-baseline:
	$(GO) run ./cmd/lowmemlint -write-baseline lint.baseline.json ./internal/...

# Protocol-graph golden (schema lowmemlint/protocol-v1): regenerate the
# whole-repo send/receive kind graph and fail on any drift from the committed
# protocol.json / protocol.dot. A diff here means the wire protocol changed —
# review it, then refresh the goldens with `make lint-graph-update`.
lint-graph:
	$(GO) run ./cmd/lowmemlint -graph /tmp/lowmemlint-protocol.json -graph-dot /tmp/lowmemlint-protocol.dot ./internal/...
	diff -u protocol.json /tmp/lowmemlint-protocol.json
	diff -u protocol.dot /tmp/lowmemlint-protocol.dot

lint-graph-update:
	$(GO) run ./cmd/lowmemlint -graph protocol.json -graph-dot protocol.dot ./internal/...

test:
	$(GO) test ./...

# Race-detector pass over the concurrent engine and the per-round goroutine
# pools (the packages where a data race could actually hide), plus the
# lock-free metrics registry whose histograms take concurrent writers, the
# COW data plane (readers hammering LookupBatch across table swaps), and the
# pooled-packet router built on it.
race:
	$(GO) test -race ./internal/congest/... ./internal/treeroute/... ./internal/hopset/... ./internal/core/... ./internal/obs/... ./internal/dataplane/... ./internal/router/...

# Full test run with the output captured (the repository's test record).
test-record:
	$(GO) test ./... 2>&1 | tee test_output.txt

bench:
	$(GO) test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt

# Benchmark-regression snapshot (internal/benchfmt, schema
# lowmemroute.bench/v1): the congest hot-path micro-benchmarks and the
# per-package steady-state handler benchmarks at full precision, plus one
# deterministic pass over the paper tables (including the sharded Table 1
# row), rendered as BENCH_$(BENCH_TAG).json. The committed BENCH_PR10.json
# was produced by `make bench-json BENCH_TAG=PR10`; BENCH_PR9.json is the
# PR 9 trajectory point it was gated against.
#
# Every bench runs with -cpu 1 (GOMAXPROCS=1), the setting the committed
# snapshots were recorded at, so the gate gives the same verdict on any core
# count: the engine spawns per-worker goroutines when it has more than one
# CPU, and BenchmarkRunFlood's allocs/op grow with GOMAXPROCS (14 at one
# CPU, ~90 at two). Benchmark names are unchanged (benchfmt strips the -N
# suffix).
BENCH_TAG ?= local
HANDLER_BENCHES = BenchmarkBellmanFordSteady|BenchmarkClusterGrowth|BenchmarkLightPipeline
bench-json:
	{ $(GO) test -cpu 1 -bench 'BenchmarkRunFlood|BenchmarkRunSparse|BenchmarkDelivery' -benchmem ./internal/congest; \
	  $(GO) test -cpu 1 -bench '$(HANDLER_BENCHES)' -benchmem ./internal/hopset ./internal/core ./internal/treeroute; \
	  $(GO) test -cpu 1 -bench 'BenchmarkTable[12]' -benchtime 1x -benchmem .; } \
	| $(GO) run ./cmd/benchdiff -emit -tag $(BENCH_TAG) > BENCH_$(BENCH_TAG).json
	@echo wrote BENCH_$(BENCH_TAG).json

# Compare two snapshots: fails on >MAX_REGRESS ns/B/allocs regression (with
# allocs/op regressions at or under ALLOC_FLOOR ignored) or on ANY change in
# a simulation metric (rounds, mem-words, ...). When NEW is missing it is
# generated first (bench-json), so a bare `make bench-diff` is self-contained:
# it measures the working tree against the committed PR snapshot. Usage:
#   make bench-diff OLD=BENCH_PR10.json NEW=BENCH_local.json
OLD ?= BENCH_PR10.json
NEW ?= BENCH_local.json
MAX_REGRESS ?= 0.30
ALLOC_FLOOR ?= 0
bench-diff:
	@if [ ! -f "$(NEW)" ]; then \
		echo "bench-diff: $(NEW) missing; generating it (slow: full Table 1 pass)"; \
		$(MAKE) bench-json BENCH_TAG=$(patsubst BENCH_%.json,%,$(NEW)); \
	fi
	$(GO) run ./cmd/benchdiff -old $(OLD) -new $(NEW) -max-regress $(MAX_REGRESS) -alloc-floor $(ALLOC_FLOOR)

# Data-plane forwarding benchmarks (internal/dataplane + its traffic
# generator): compiled-table flattening, single-worker and parallel batched
# lookups, COW engine swaps, and the end-to-end Zipf traffic run. The
# snapshot is diffed against the committed BENCH_PR8.json: allocs/op and the
# "members" simulation metric are exact gates; ns/op and the p50/p99/p999
# latency quantiles carry the -ns host-measured convention, so they are
# tolerance-compared (MAX_REGRESS), never exact. The committed BENCH_PR8.json
# was produced by `make bench-dataplane-json BENCH_TAG=PR8`.
DATAPLANE_BENCHES = BenchmarkCompile|BenchmarkLookupBatch|BenchmarkEngineSwap|BenchmarkTraffic
bench-dataplane:
	$(GO) test -bench '$(DATAPLANE_BENCHES)' -benchmem ./internal/dataplane/... \
	| $(GO) run ./cmd/benchdiff -emit -tag dataplane-local > /tmp/bench-dataplane.json
	$(GO) run ./cmd/benchdiff -old BENCH_PR8.json -new /tmp/bench-dataplane.json -max-regress $(MAX_REGRESS) -alloc-floor $(ALLOC_FLOOR)

bench-dataplane-json:
	$(GO) test -bench '$(DATAPLANE_BENCHES)' -benchmem ./internal/dataplane/... \
	| $(GO) run ./cmd/benchdiff -emit -tag $(BENCH_TAG) > BENCH_$(BENCH_TAG).json
	@echo wrote BENCH_$(BENCH_TAG).json

# One iteration of every micro-benchmark plus a snapshot round-trip through
# cmd/benchdiff: catches benchmarks that no longer compile and bench output
# the harness can no longer parse, without trusting noisy timings. The
# benches bench-json gates run at -cpu 1 as there; the data-plane benches
# keep the host's GOMAXPROCS, as in bench-dataplane (RunParallel).
bench-smoke:
	{ $(GO) test -cpu 1 -bench 'BenchmarkRunFlood|BenchmarkRunSparse|BenchmarkDelivery' -benchtime 1x -benchmem ./internal/congest; \
	  $(GO) test -cpu 1 -bench '$(HANDLER_BENCHES)' -benchtime 1x -benchmem ./internal/hopset ./internal/core ./internal/treeroute; \
	  $(GO) test -bench '$(DATAPLANE_BENCHES)' -benchtime 1x -benchmem ./internal/dataplane/...; } \
	| $(GO) run ./cmd/benchdiff -emit -tag ci-smoke > /tmp/bench-smoke.json
	$(GO) run ./cmd/benchdiff -old /tmp/bench-smoke.json -new /tmp/bench-smoke.json

# Fuzz the label and table wire decoders (internal/wire) for 15 s each:
# every input a decoder accepts must re-encode to the same bytes. A failing
# input is saved under internal/wire/testdata/fuzz and replays in `make test`.
fuzz-wire:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeLabel$$' -fuzztime 15s ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeTable$$' -fuzztime 15s ./internal/wire

# The pipeline benchmark (perfbench/) is a module of its own, so the root
# `go test ./...` never compiles it; vet and test it here against the
# current sources (its go.mod replaces lowmemroute with ../).
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# End-to-end check of the live metrics pipeline: run a small routebench
# sweep with -pprof on an ephemeral port, scrape /metrics during
# -pprof-hold, and validate the exposition (format + required families)
# with cmd/promcheck.
metrics-smoke:
	./scripts/metrics-smoke.sh

# Scale-harness smoke (experiment E12): one fast full-build cell through the
# streaming-CSR → simulator → core.Build path, then a
# 2^15-vertex substrate probe (generation + engine boot + bounded 64-hop
# exploration) at a size where a full Õ(√n)-round build would not fit a CI
# budget. Both run under a hard timeout so a scaling regression fails the
# job instead of hanging it. The stdout rows are deterministic for the seed;
# wall times and heap figures go to stderr.
scale-smoke:
	timeout 300 $(GO) run ./cmd/routebench -scale -scale-n 256 -k 2 -family grid -seed 1
	timeout 300 $(GO) run ./cmd/routebench -scale-probe 32768 -family grid -seed 1

# Checkpoint/resume smoke: one full-build scale cell checkpointed to a file,
# then the same cell rerun with -resume (completed phases skipped, engine and
# builder state restored) at a different shard count. The deterministic
# stdout rows must be byte-identical — resume and sharding are both
# unobservable in every measured quantity.
CKPT_SMOKE := /tmp/lowmemroute-ckpt-smoke
ckpt-smoke:
	rm -f $(CKPT_SMOKE).ckpt
	timeout 300 $(GO) run ./cmd/routebench -scale -scale-n 256 -k 2 -family grid -seed 1 \
		-checkpoint $(CKPT_SMOKE).ckpt > $(CKPT_SMOKE)-1.txt
	timeout 300 $(GO) run ./cmd/routebench -scale -scale-n 256 -k 2 -family grid -seed 1 \
		-checkpoint $(CKPT_SMOKE).ckpt -resume -shards 4 > $(CKPT_SMOKE)-2.txt
	cmp $(CKPT_SMOKE)-1.txt $(CKPT_SMOKE)-2.txt
	@echo "ckpt-smoke: resumed stdout byte-identical"

# Regenerate the paper's tables and sweeps (EXPERIMENTS.md).
table1:
	$(GO) run ./cmd/routebench -n 128,256 -k 2,3

table2:
	$(GO) run ./cmd/treebench -n 256,1024,4096

sweeps:
	$(GO) run ./cmd/routebench -sweep k -n 256 -k 2,3,4
	$(GO) run ./cmd/treebench -sweep n -n 128,256,512,1024,2048
	$(GO) run ./cmd/treebench -sweep multitree -n 256
	$(GO) run ./cmd/treebench -sweep hopset -n 256 -family grid

demo:
	$(GO) run ./cmd/routedemo

fmt:
	gofmt -w .
