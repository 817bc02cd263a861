// Package repro is a from-scratch Go reproduction of "Linear
// Aggressive Prefetching: A Way to Increase the Performance of
// Cooperative Caches" (T. Cortes, J. Labarta, IPPS 1999).
//
// The implementation lives under internal/: a deterministic
// discrete-event simulator (internal/sim), the machine models of the
// paper's Table 1 (internal/machine, internal/netmodel,
// internal/diskmodel), the cooperative-cache substrate
// (internal/cachesim), the two simulated file systems (internal/pafs,
// internal/xfs), the synthetic CHARISMA and Sprite workloads
// (internal/workload), the paper's contribution — the OBA and IS_PPM
// predictors and the linear aggressive prefetch driver
// (internal/core) — and the experiment harness regenerating every
// figure and table (internal/experiment).
//
// See README.md for a tour, DESIGN.md for the system inventory, and
// EXPERIMENTS.md for the paper-versus-measured record. cmd/lapbench
// regenerates each figure and table:
//
//	go run ./cmd/lapbench -scale small -exp fig4
//
// Performance is measured by the benchmark in bench/ (its own module):
//
//	bash bench/run.sh -workload hit_fanin
package repro
