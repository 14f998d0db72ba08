# Tier-1 verification in one command: `make check`.
GO ?= go

# Every package runs under the race detector; -count=1 defeats test result
# caching so races that depend on scheduling get a fresh chance to appear.
RACE_PKGS = ./...

# Seconds per fuzz target in the smoke pass (full sessions: `go test
# -fuzz <name> ./internal/srb` with no time limit).
FUZZTIME ?= 10s

.PHONY: check vet build test race lint lint-json fuzz-short chaos-short chaos-long bench bench-smoke perfbench-test perf

check: vet build test race lint fuzz-short chaos-short perfbench-test

# vet also fails on gofmt drift. Hidden directories (.git, the benchmark's
# .bench_build cache) are skipped.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l $$(find . -path './.*' -prune -o -name '*.go' -print)); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l: unformatted files:"; echo "$$unformatted"; exit 1; fi

build:
	$(GO) build ./...

# -shuffle=on randomizes test (and subtest-sibling) execution order so
# inter-test state leaks surface instead of hiding behind file order; the
# seed is printed on failure for reproduction with -shuffle=<seed>.
test:
	$(GO) test -shuffle=on ./...

# The analyzer corpus line is explicit (not folded into RACE_PKGS) so a
# narrowed RACE_PKGS override still races the analysis engine, whose
# summary cache is the kind of lazily-built shared state -race exists for.
race:
	$(GO) test -race -count=1 -shuffle=on $(RACE_PKGS)
	$(GO) test -race -count=1 ./internal/analysis

# semplarvet: the project's own analyzer suite, ten rules — intraprocedural
# (lockheld, guardedfield, wireproto, errdrop, determinism) plus the
# interprocedural lifecycle/ordering set (pooluse, lockorder, spanbalance,
# retryclass, goexit). Non-zero exit on any finding. Restrict with
# RULES=name1,name2 (`make lint RULES=pooluse,lockorder`); list names with
# `go run ./cmd/semplarvet -list`.
RULES ?=
lint:
	$(GO) run ./cmd/semplarvet $(if $(RULES),-rules $(RULES)) ./...

# Machine-readable findings for CI artifact upload; same exit semantics.
lint-json:
	$(GO) run ./cmd/semplarvet $(if $(RULES),-rules $(RULES)) -json ./... > lint.json

# Short fuzz smoke over the wire-protocol parsers and the MCAT journal
# codec (crash-torn input): seeds plus $(FUZZTIME) of mutation per target.
fuzz-short:
	$(GO) test ./internal/srb -run=^$$ -fuzz=FuzzReadRequest -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/srb -run=^$$ -fuzz=FuzzReadResponse -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/srb -run=^$$ -fuzz=FuzzDecodeFileInfo -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/srb -run=^$$ -fuzz=FuzzWritevRoundTrip -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/srb -run=^$$ -fuzz=FuzzDecodeWritev -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/srb -run=^$$ -fuzz=FuzzReadvRoundTrip -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/srb -run=^$$ -fuzz=FuzzDecodeReadv -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/srb -run=^$$ -fuzz=FuzzDecodeAuth -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/srb -run=^$$ -fuzz=FuzzAuthRoundTrip -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/mcat -run=^$$ -fuzz=FuzzDecodeRecord -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/mcat -run=^$$ -fuzz=FuzzReadJournal -fuzztime=$(FUZZTIME)

# The benchmark harness is its own module (perfbench/go.mod), so the root
# `go test ./...` never reaches it. Its tests pin the harness against the
# stack it measures: the traced driver wrapper keeps mpiio's dispatch, and a
# strided read sends the server the same requests traced and untraced.
perfbench-test:
	cd perfbench && $(GO) test ./...

# Seeded chaos smoke: a full workload under connection kills, partitions,
# latency spikes and a server crash/restart, with end-to-end checksum
# verification and leak checks, plus the federated variant (three shards,
# replicated placement, one shard killed mid-write) and the abusive-tenant
# scenario (one flooding tenant shed at its bucket while well-behaved
# neighbors run clean). Deterministic schedules, seconds to run.
chaos-short:
	$(GO) test ./internal/chaos -run 'TestChaosShort|TestChaosFederationShort|TestChaosTenantShort' -count=1

# The full soak (several seeds, every fault class repeatedly); not part of
# `make check`.
chaos-long:
	$(GO) test -tags chaoslong ./internal/chaos -run TestChaosLong -count=1 -v

# Wire hot-path snapshot (pipelining, write coalescing, allocs/op,
# 1-vs-3-server federated striping, strided-read fast paths, fair-share
# p99 under a flooding neighbor): writes $(BENCH_SNAP) for committing
# alongside the change it measures, then runs the paper-figure benchmarks.
BENCH_SNAP ?= BENCH_10.json

bench:
	$(GO) run ./cmd/benchsnap -out $(BENCH_SNAP)
	$(GO) test -bench=. -benchtime=1x -run=^$$ .

# Tiny benchsnap run (result discarded): proves the measurement harness
# still works, that neither pipelining nor the sieved strided read has
# regressed below its naive baseline, and that a flooding tenant is shed
# at its bucket instead of wrecking its neighbor's p99. Wired into CI.
bench-smoke:
	$(GO) run ./cmd/benchsnap -quick -out -

# The repository benchmark (perfbench/run.py) over its three workloads,
# printing only each workload's metric lines and its failed_frac, so a
# before/after pair is one command per checkout. TRACE=1 adds the
# per-layer metrics; CARGO_TARGET_DIR holds the benchmark's build.
SEED ?= 1
SECONDS ?= 15
TRACE ?= 0
CARGO_TARGET_DIR ?= .bench_build
PERF_WORKLOADS = ckpt-wan small-ops fed-replicated

perf:
	@for w in $(PERF_WORKLOADS); do \
		out=$$(CARGO_TARGET_DIR=$(CARGO_TARGET_DIR) python3 perfbench/run.py --workload $$w \
			--seed $(SEED) --seconds $(SECONDS) --trace $(TRACE)) || exit 1; \
		echo "workload $$w"; \
		printf '%s\n' "$$out" | awk '/^metric /{print} /failed_frac/{print "failed_frac", $$NF}'; \
	done
