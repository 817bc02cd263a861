# Development targets. `make check` is the full gate: gofmt, vet, build,
# the whole test suite under the race detector (each package once), a
# short run of every fuzz target over its seed corpus, a smoke of the
# lapbench CLI paths no test drives, and the bench/ module (its own
# go.mod, so nothing above compiles it).

GO ?= go
FUZZTIME ?= 10s

.PHONY: check check-load check-hotpath check-predictors check-bench soak fmt vet build test race fuzz bench bench-all report

check: fmt vet build race fuzz check-load check-hotpath check-predictors check-bench

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
# the fault-injection and chaos harnesses, the open-loop load e2e with
# its pool-churn no-lost-request regressions, and the cross-predictor
# conformance suite over every core.NamedAlgorithms entry.
race:
	$(GO) test -race ./...

# Smokes of the real CLI paths behind the suites above: a short
# low-rate open-loop sweep, two small -exp hotpath cells, and the
# tiny-scale predictor matrix (win checks only engage at -scale full).
check-load:
	$(GO) run ./cmd/lapbench -exp load -load-rates 200,400 -load-dur 1s

check-hotpath:
	$(GO) run ./cmd/lapbench -exp hotpath -hotpath-conns 1,16 -hotpath-dur 500ms

check-predictors:
	$(GO) run ./cmd/lapbench -exp predictors -scale tiny

# bench/ is a fixed consumer of Engine, lapclient.Conn and the server:
# vet and test it against this checkout, then run every BENCHMARK.json
# workload briefly with its own checks on, so a signature or behaviour
# slip surfaces here and not at the benchmark driver.
check-bench:
	cd bench && $(GO) vet . && $(GO) test -race .
	bash bench/run.sh -all -check

# Chaos soak: random seeds in a loop (SOAK_RUNS, default 20). Every
# other run puts the AdaptiveFDP degree policy on the seed-chosen
# victim node (strict linear elsewhere), so the audit exercises both
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
	$(GO) test ./internal/stats/ -run FuzzHistogramRecord -fuzz FuzzHistogramRecord -fuzztime $(FUZZTIME)
	$(GO) test ./internal/membership/ -run FuzzMembershipDecode -fuzz FuzzMembershipDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core/ -run FuzzDegreePolicy -fuzz FuzzDegreePolicy -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core/ -run FuzzMithril -fuzz FuzzMithril -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core/ -run FuzzMarkov -fuzz FuzzMarkov -fuzztime $(FUZZTIME)

# The runtime micro-benchmarks: engine demand-read paths and the wire
# round trip, serial and pipelined (BENCH_wire.json), the cooperative tier's
# local-hit / remote-hit / local-disk ladder (BENCH_cluster.json), and
# the dynamic-membership tier's owner-death ladder plus the budgeted
# rebalancer (BENCH_membership.json).
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkLapcacheGet|BenchmarkWireRoundTrip' -benchmem . | \
		$(GO) run ./cmd/benchfmt -benchmark "BenchmarkLapcacheGet + BenchmarkWireRoundTrip" -o BENCH_wire.json \
		-assert-allocs 'BenchmarkLapcacheGet/hit=0,BenchmarkLapcacheGet/miss=0,BenchmarkLapcacheGet/prefetchedHit=0' \
		-description "lapcache engine demand-read paths (zero-copy ReadInto: hit, miss, first touch of a prefetched block) and one 8 KiB cached block fetched per round trip over loopback TCP, serial and pipelined." \
		-command "make bench" \
		-notes "binary streams the payload from the refcounted cache buffer (no copy); binaryPipelined is the -replay configuration: pooled connections with an in-flight window."
	$(GO) test -run '^$$' -bench BenchmarkClusterRead -benchmem . | \
		$(GO) run ./cmd/benchfmt -benchmark BenchmarkClusterRead -o BENCH_cluster.json \
		-assert-allocs 'BenchmarkClusterRead/localHit=0,BenchmarkClusterRead/remoteHit=0' \
		-description "One 8 KiB block with data per read over loopback TCP: a block cached on the contacted node (localHit), a local miss forwarded to the ring owner holding it in memory (remoteHit, two wire hops), and the same miss against a backing store with a disk-like 2 ms access and no peer tier (localDisk)." \
		-command "make bench" \
		-notes "The paper's premise measured end to end: the remote memory hit is two orders of magnitude faster than the local disk read it replaces. remoteHit runs on a live 3-node cluster (cluster.StartLocal) with the contacted node's cache shrunk to 4 blocks so every read forwards. localHit and remoteHit ride the vectored zero-copy wire path and are gated at 0 allocs/op (-assert-allocs)."
	{ $(GO) test -run '^$$' -bench 'BenchmarkMembership/(replicaHit|diskDegrade)' -benchtime 200x -benchmem .; \
	  $(GO) test -run '^$$' -bench 'BenchmarkMembership/handoff' -benchtime 1x -benchmem .; } | \
		$(GO) run ./cmd/benchfmt -benchmark BenchmarkMembership -o BENCH_membership.json \
		-description "Owner death on a live 3-node dynamic-membership cluster (SWIM gossip, 300 ms suspicion): one 8 KiB block per read of files whose ring owner was just killed. replicaHit runs R=2 — the moved arc lands on the successor already holding the replica in memory; diskDegrade runs R=1 — the new owner has nothing and pays the 2 ms store access. handoff seeds a survivor's cache with foreign blocks and measures the post-rejoin rebalancing sweep against a 1 MiB/s byte budget." \
		-command "make bench" \
		-notes "replicaHit vs diskDegrade is the replication claim end to end: owner death costs a memory hit, not a disk read. blocks-moved/s is measured from the rejoin to handoff quiescence; at 8 KiB blocks the 1 MiB/s budget is 128 blocks/s, and the measured rate must sit at (never materially above) that ceiling — the bound that keeps rebalancing from starving foreground traffic."
	$(GO) run ./cmd/lapbench -exp adaptive -bench | \
		$(GO) run ./cmd/benchfmt -benchmark BenchmarkAdaptiveAB -o BENCH_adaptive.json \
		-description "Strict linear (Ln_Agr_IS_PPM:1) vs the feedback-controlled AdaptiveFDP window (Ad_Agr_IS_PPM:1) on the same live engine, same 200us store, same pause-free sequential streams. deepseq: roomy cache, the window is the only limiter. coldtail: a 6-block cache smaller than the controller's widest window, where deep speculation self-evicts." \
		-command "make bench" \
		-notes "Each policy must win its home workload: adaptive takes deepseq on the latency distribution (the widened window pipelines the store), linear takes coldtail on hit ratio and wasted fetches (the paper's small-cache argument). hit-% undercounts the adaptive pipeline on deepseq — a read that waits microseconds for a landing prefetch books as a miss; ns/op, p50-ns and p99-ns carry that comparison. degree is the controller window at run end; accuracy-% is lifetime useful fraction of resolved prefetches."
	$(GO) run ./cmd/lapbench -exp hotpath -bench | \
		$(GO) run ./cmd/benchfmt -benchmark BenchmarkHotpath -o BENCH_hotpath.json \
		-description "The wire hot path end to end: an in-process server with the vectored (writev) response path, the drain-the-ready-queue coalescing latch and sharded accept loops, driven closed-loop by 1, 64, and 1024 concurrent connections each keeping a 4-deep pipeline of single-block 8 KiB cache-hit reads in flight. ns/op is mean request latency; p50-ns/p99-ns are the tails; req/s is achieved throughput." \
		-command "make bench" \
		-notes "At conns=1 the latch must not tax latency (it only fires when a complete next request is already buffered); at high fan-in it amortizes syscalls across ready responses. The coalesce-off half of the A/B (+12-49 % req/s for coalescing) is kept in EXPERIMENTS.md."
	$(GO) run ./cmd/lapbench -exp load -load-bench -load-rates 500,1000,2000,4000,8000,16000 -load-dur 1s | \
		$(GO) run ./cmd/benchfmt -benchmark BenchmarkLoad -o BENCH_load.json \
		-description "Open-loop throughput-vs-latency sweep against one in-process lapcached node: Poisson arrivals at each offered rate for 1s of virtual time, Zipf(1.1) popularity over 64 files, 4-block spans, latencies measured from each request's scheduled arrival (coordinated-omission corrected) into an HDR-style histogram." \
		-command "make bench" \
		-notes "req_per_s is achieved completion rate at that offered rate; p50/p99/p999 are end-to-end latency from scheduled arrival. BenchmarkLoadKnee marks the first swept rate past the knee criterion (p99 > 8x baseline or achieved < 0.9x offered). The sweep runs warm: each rate reuses the cache state the previous rates built."
	$(GO) run ./cmd/lapbench -exp predictors -scale full -bench | \
		$(GO) run ./cmd/benchfmt -benchmark BenchmarkPredictors -o BENCH_predictors.json \
		-description "The predictor x workload matrix at full scale and the smallest (1 MB/node) cache: NP, the paper's linear-aggressive classics (OBA, IS_PPM:1, IS_PPM:3) and the post-paper association predictors (Mithril, Markov), each over CHARISMA, a whole-file sequential scan (deepseq), a Zipf web/CDN page workload and an OLTP index-then-row workload. ns/op is mean demand read latency; hit-% the demand hit ratio; timely/late/wasted classify every prefetch; pf-B/hit is bytes prefetched per timely hit." \
		-command "make bench" \
		-notes "The run exits nonzero unless the which-predictor-for-which-workload claims hold: the classics keep CHARISMA (paper ranking unchanged) and deepseq, Markov takes the CDN cell and Mithril the OLTP cell outright — scenarios where every linear-sequential config loses to NP. The association predictors only fire under re-fetch pressure, so the matrix is pinned to the cache size whose footprints overflow it."

# Every benchmark in the repo, including the paper-figure regenerators
# (minutes of simulation work).
bench-all:
	$(GO) test -bench=. -benchmem

# Print the full-scale paper-vs-measured record. EXPERIMENTS.md keeps
# a hand-written preamble (the header comment and the Methodology
# section); splice this output in after it when refreshing.
report:
	$(GO) run ./cmd/lapbench -scale full -exp report
