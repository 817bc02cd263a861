# Development targets. `make check` is the full gate: no committed
# result file but BENCHMARK.json, no internal package without a consumer,
# no command or example README leaves out, no Fuzz* function the fuzz
# recipe leaves out or names in vain, no settings field that no other
# package sets, no exported identifier that no non-test code uses and
# no code name in the documents that names nothing (check-cold), gofmt,
# vet,
# build, the whole test suite under the race detector (each package
# once), a short run of every fuzz target over its seed corpus, the
# committed EXPERIMENTS.md against the report the code generates, and
# the bench/ module (its own go.mod, so nothing above compiles it).
# Performance numbers come from `bash bench/run.sh` alone. CI adds
# repeated race runs of the timing-dependent suites (see ci.yml's
# header): among them the prefetch window's concurrent feedback
# (core:TestAdaptiveConcurrentFeedback), the adaptive engine
# (lapcache:TestAdaptiveEngine*) and the windows' in-flight and fate
# counts read while a linear engine serves
# (lapcache:TestHighWatersReadWhileServing), twenty times each. The thirteen
# zero-allocation gates (engine hit, miss from a one-entry shard, miss
# evicting from full eight-entry shards, prefetched hit and predicted
# hit; loopback hit; remote hit; simulator event and resource request;
# simulated cache insert, eviction and use on full pools; warm
# predictor step; a pattern-graph node's first link; a chain restart
# that drops its queued prefetch), the pipelined loopback hit's bound
# (eight callers sharing one connection's flush: at most 0.01 per
# read, lapclient:TestPipelinedHitAllocs) and the bounds on a simulated
# cell's allocations per event (one per cell, at most 0.30 and 0.33,
# experiment:TestCellAllocsPerEvent) are tests
# tagged !race: `make test` enforces them, `make race` skips them
# (`go test -run 'Allocs|DryHitCost' ./internal/lapcache/
# ./internal/lapclient/ ./internal/cluster/ ./internal/sim/
# ./internal/cachesim/ ./internal/core/ ./internal/experiment/` runs
# them alone — the
# pattern matches TestPipelinedHitAllocs too — and with
# them core's count of the Predict and Cached calls a hit costs a chain
# that has nothing to fetch — a gate in calls, so both targets run it).
# `make loc` prints the size ROADMAP and CHANGES.md quote: non-test Go
# lines outside bench/, tracked or new (it gates nothing).
# `make profile-sweep` profiles the simulator without bench/: three
# passes of experiment:BenchmarkSweepRunCells into .bench_build/sweep.cpu,
# then pprof's top 30 (it gates nothing either).

GO ?= go
FUZZTIME ?= 10s

.PHONY: check no-result-files check-cold check-record check-bench soak fmt vet build test race fuzz report loc profile-sweep

check: no-result-files check-cold fmt vet build race fuzz check-record check-bench

# bench/ is the one instrument; a BENCH_*.json snapshot beside it is a
# second one.
no-result-files:
	@out=$$(git ls-files 'BENCH_*.json'); if [ -n "$$out" ]; then echo "committed result files (bench/run.sh is the one instrument):"; echo "$$out"; exit 1; fi

# Cold code (ROADMAP Open item 8): every internal package is imported
# by non-test code of another package, here or in bench/ (.Imports
# leaves test files out, and no package imports itself), and README
# names every command and example. internal/conformance is exempt: its
# consumer is its own gate, the cross-predictor suite in its _test.go,
# and its non-test file is that suite's fixtures. Last, the (package,
# target) pairs the fuzz recipe runs must be exactly the func Fuzz* in
# *_test.go: `go test -fuzz FuzzGone` prints "no fuzz tests to fuzz"
# and exits 0, so a stale line would otherwise pass in silence, and a
# new target would never be fuzzed. Then the exported halves and the
# documents, three gates over one type-checked load of this module and bench/ (one `go
# list -export -deps` per module, each package checked once):
# conformance:TestEverySettingHasASetter fails on any exported field of
# an internal *Config, *Opts, *Options or *Server struct that no other package's
# non-test code sets (one value in use is a constant), less its
# allow-list, and logs each struct's field and setter counts;
# conformance:TestEveryExportHasAConsumer fails on any exported
# function, method, type, var or const under internal/ that no non-test
# code uses outside its own declaration (a method also counts as used
# through an interface method that non-test code calls, or a standard
# one such as fmt.Stringer), less its allow-list of at most five; and
# conformance:TestDocsNameOnlyWhatExists, the converse, over the same
# load: every code name DESIGN.md, README.md and EXPERIMENTS.md put in
# backticks (pkg.Name, Type.Method, pkg:TestName, TestPrefix*, a bare
# camel-case name) exists, unexported names and test functions
# included, unless its sentence says "gone in PR N" or gives a
# `git show <rev>:path`.
check-cold:
	@used=$$({ $(GO) list -f '{{join .Imports "\n"}}' ./... && cd bench && $(GO) list -f '{{join .Imports "\n"}}' ./...; } | sort -u); \
	for p in $$($(GO) list ./internal/...); do \
		[ $$p = repro/internal/conformance ] || printf '%s\n' "$$used" | grep -qxF $$p || { echo "check-cold: $$p has no importer outside its own tests"; bad=1; }; \
	done; \
	for d in cmd/* examples/*; do \
		grep -qF $$d README.md || { echo "check-cold: README.md does not mention $$d"; bad=1; }; \
	done; \
	have=$$(git ls-files -co --exclude-standard '*_test.go' | xargs grep -H '^func Fuzz' | sed -E 's#^(.*)/[^/]*:func (Fuzz[A-Za-z0-9_]*).*#./\1/ \2#' | sort); \
	run=$$($(MAKE) -s -n --no-print-directory fuzz | sed -nE 's#.* test ([^ ]+) .*-fuzz ([A-Za-z0-9_]+).*#\1 \2#p' | sort); \
	[ "$$have" = "$$run" ] || { echo "check-cold: the fuzz recipe and the Fuzz* functions in *_test.go differ:"; \
		{ printf '%s\n' "$$have" | sed 's/^/only-defined /'; printf '%s\n' "$$run" | sed 's/^/only-in-fuzz-recipe /'; } | sort -k2 | uniq -u -f1; bad=1; }; \
	out=$$($(GO) test -count=1 -run '^(TestEverySettingHasASetter|TestEveryExportHasAConsumer|TestDocsNameOnlyWhatExists)$$' ./internal/conformance/) || { printf '%s\n' "$$out"; bad=1; }; \
	[ -z "$$bad" ]

# gofmt -l walks every .go file under the checkout, bench/ included.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt: needs formatting:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Every suite under the race detector, once: the runtime engine and its
# linearity stress, the wire hot path (coalescing latch, sharded accept,
# torn vectored write), the cooperative tier's 3-node CHARISMA replay,
# the fault-injection and chaos harnesses, the connection-churn
# no-lost-request regression (a shared Conn closed mid-load, its
# callers redialing) with its server-side audit, and the
# cross-predictor conformance suite over every core.NamedAlgorithms
# entry.
race:
	$(GO) test -race ./...

# The committed record is what the code generates: every table row
# (`| `-prefixed line: verdicts, paper Table 2, observability cells) of
# the full-scale report must appear verbatim in EXPERIMENTS.md. About
# half a minute of simulation.
check-record:
	@rows=$$($(GO) run ./cmd/lapbench -scale full -exp report | grep '^| ') || { echo "check-record: lapbench -exp report printed no table rows"; exit 1; }; \
	missing=$$(printf '%s\n' "$$rows" | grep -vxFf EXPERIMENTS.md); \
	if [ -n "$$missing" ]; then echo "EXPERIMENTS.md has drifted from lapbench -scale full -exp report; rows it lacks:"; echo "$$missing"; exit 1; fi

# bench/ is a fixed consumer of Engine, lapclient.Conn and the server:
# vet and test it against this checkout, then run every BENCHMARK.json
# workload briefly with its own checks on, so a signature or behaviour
# slip surfaces here and not at the benchmark driver.
check-bench:
	cd bench && $(GO) vet . && $(GO) test -race .
	bash bench/run.sh -all -check

# Chaos soak: random seeds in a loop (SOAK_RUNS, default 20), each a
# 3-node fleet on the fixed ring under the seeded fault plan. Every
# other run puts the adaptive prefetch window on one seed-chosen node,
# the victim (linear elsewhere), so the audit exercises both
# the exact HW==1 bound and the generalized HW<=cap bound. Each run
# prints its seed up front, so a failure names the exact seed to replay
# with `go run ./cmd/lapbench -exp chaos -seed N [-adaptive-victim]`.
SOAK_RUNS ?= 20
soak:
	@i=0; while [ $$i -lt $(SOAK_RUNS) ]; do \
		seed=$$(od -An -N4 -tu4 /dev/urandom | tr -d ' '); \
		av=$$((i % 2)); \
		echo "== chaos soak run $$i seed=$$seed adaptive-victim=$$av"; \
		$(GO) run ./cmd/lapbench -exp chaos -seed $$seed -adaptive-victim=$$av || { \
			echo "SOAK FAILURE: reproduce with: go run ./cmd/lapbench -exp chaos -seed $$seed -adaptive-victim=$$av"; exit 1; }; \
		i=$$((i+1)); \
	done

# Run each fuzz target briefly; the seed corpus alone is covered by
# plain `go test`, this also explores mutations for FUZZTIME.
fuzz:
	$(GO) test ./internal/workload/ -run FuzzDecode -fuzz FuzzDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wire/ -run FuzzWireDecode -fuzz FuzzWireDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/cluster/ -run FuzzRing -fuzz FuzzRing -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core/ -run FuzzDegreePolicy -fuzz FuzzDegreePolicy -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core/ -run FuzzISPPM -fuzz FuzzISPPM -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core/ -run FuzzBlockPPM -fuzz FuzzBlockPPM -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core/ -run FuzzTable -fuzz FuzzTable -fuzztime $(FUZZTIME)
	$(GO) test ./internal/lapcache/ -run FuzzBlockCache -fuzz FuzzBlockCache -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sim/ -run FuzzEventOrder -fuzz FuzzEventOrder -fuzztime $(FUZZTIME)

# Print the full-scale paper-vs-measured record. EXPERIMENTS.md keeps
# a hand-written preamble (the header comment and the Methodology
# section); splice this output in after it when refreshing.
report:
	$(GO) run ./cmd/lapbench -scale full -exp report

# Non-test Go lines outside bench/: the number every simplicity entry
# in CHANGES.md reports.
loc:
	@git ls-files -co --exclude-standard '*.go' ':!:*_test.go' ':!:bench/' | xargs cat | wc -l

# The simulator's CPU profile: the 84 standard small-scale cells on two
# RunCells workers, as sim_sweep runs them, three passes, so the
# collector's write barriers show (DESIGN §6). The profile and the test
# binary pprof reads it with go under .bench_build.
profile-sweep:
	@mkdir -p .bench_build
	$(GO) test -run '^$$' -bench SweepRunCells -benchtime 3x -cpuprofile $(CURDIR)/.bench_build/sweep.cpu -o $(CURDIR)/.bench_build/experiment.test ./internal/experiment/
	$(GO) tool pprof -top -nodecount=30 .bench_build/experiment.test .bench_build/sweep.cpu
