// Package chaos is the fault-injection harness for the lapcache
// runtime: it boots a live in-process cluster, replays a CHARISMA
// trace through it while a seeded faultinject.Plan misbehaves at the
// store, wire and peer layers, and checks the invariants the system
// claims to keep under failure:
//
//   - Linearity: per file, only the ring owner ever drives prefetches,
//     with an outstanding high-water of at most the degree policy's cap
//     — exactly 1 under the fleet's Ln_ algorithm, ≤ the controller's
//     hard K under an adaptive window — faults included.
//   - Buffer lifecycle: with poison mode on, no buffer is written
//     after release, and after teardown the pool's live count is zero
//     (no leak survived any error path).
//   - Error integrity: every trace step is recorded exactly once,
//     with one outcome (lapclient.Record); every error a client sees
//     is an expected injection (it carries the faultinject marker), a
//     node's refusal of a request whose owner it could not reach, or a
//     tolerated transport failure on a link the plan targets; reads
//     that succeed return bit-exact oracle data (the deterministic
//     fill pattern), and the run terminates — no wedge, ever.
//
// Determinism: the faulted-site set is a pure function of the plan
// seed (see faultinject), so a failing run is replayed bit for bit by
// rerunning its seed — `lapbench -exp chaos -seed N`.
package chaos

import (
	"fmt"
	"net"
	"sort"
	"strings"
	"time"

	"repro/internal/blockdev"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/lapcache"
	"repro/internal/lapclient"
	"repro/internal/workload"
)

// Config describes one chaos run.
type Config struct {
	// Seed drives everything: the workload generator, the fault plan
	// and therefore the whole faulted-site set.
	Seed uint64
	// Charisma generates the replayed trace; its Seed field is
	// overridden with Seed.
	Charisma workload.CharismaParams
	// AdaptiveVictim runs the adaptive variant of the fleet's
	// algorithm on one seed-chosen node, the victim, leaving the rest
	// pinned linear — the mixed-fleet shape of a staged rollout. The
	// victim's per-file high-water marks are audited against the
	// adaptive cap, everyone else's against 1.
	AdaptiveVictim bool
}

// The fleet every run boots: three nodes of 4096 512-byte blocks, each
// running the paper's linear aggressive IS_PPM:1 (AdaptiveVictim
// aside). replayTimeout bounds the whole replay; exceeding it is the
// wedge invariant failing. Each node's client may redial redialBudget
// times.
const (
	fleetSize     = 3
	blockSize     = 512
	cacheBlocks   = 4096
	replayTimeout = 60 * time.Second
	redialBudget  = 64
)

// Invariants is the harness's verdict, one field per claim.
type Invariants struct {
	// Linearity. DegreeCap is the largest per-file bound any node's
	// policy allows: MaxOwnerHW must stay within it, and OverCap lists
	// files whose high-water exceeded their node's *own* engine's cap — a mixed
	// fleet is audited per node.
	DegreeCap        int      `json:"degree_cap,omitempty"`
	MaxOwnerHW       int      `json:"max_owner_hw"`      // must be <= DegreeCap
	OverCap          []string `json:"over_cap"`          // must be empty
	NonOwnerDriven   []string `json:"non_owner_driven"`  // must be empty
	LinearViolations uint64   `json:"linear_violations"` // must be 0
	PeerRefused      uint64   `json:"peer_refused"`      // must be 0: one ring, and no fault rewrites a header's file
	// Buffer lifecycle.
	BufLive     int64 `json:"buf_live"`     // must be 0 after teardown
	DrainedBufs int   `json:"drained_bufs"` // informational
	// Determinism: observed fault sites that the plan's pure selection
	// function would not pick — any entry is a selection-determinism
	// bug in the injector.
	UnselectedObserved []string `json:"unselected_observed"` // must be empty
	// Error/data integrity.
	Outcomes         Outcomes `json:"outcomes"`          // must sum to Steps
	DataMismatches   int      `json:"data_mismatches"`   // must be 0
	UnexpectedErrors []string `json:"unexpected_errors"` // must be empty
	InjectedErrors   int      `json:"injected_errors"`   // informational
	TransportErrors  int      `json:"transport_errors"`  // tolerated: the plan targets the wire
	RefusedForwards  uint64   `json:"refused_forwards"`  // informational
	Wedged           bool     `json:"wedged"`            // must be false
}

// Outcomes counts the replayed trace steps by their one outcome
// (lapclient.Outcome). Every step is recorded exactly once, so the
// counts sum to Steps, the trace's step count.
type Outcomes struct {
	Steps         int `json:"steps"`
	OK            int `json:"ok"`
	Refused       int `json:"refused"`       // an error frame: definite
	Indeterminate int `json:"indeterminate"` // a transport error after the send
	NoConn        int `json:"no_conn"`       // a spent redial budget
}

// String renders the counts as the invariants line's outcomes= token.
func (o Outcomes) String() string {
	return fmt.Sprintf("ok:%d,refused:%d,indeterminate:%d,noconn:%d", o.OK, o.Refused, o.Indeterminate, o.NoConn)
}

// Check returns an error naming every violated invariant, or nil.
func (v Invariants) Check() error {
	var bad []string
	if v.Wedged {
		bad = append(bad, "replay wedged (timeout exceeded)")
	}
	if v.MaxOwnerHW > v.DegreeCap {
		bad = append(bad, fmt.Sprintf("owner prefetch high-water %d > degree cap %d", v.MaxOwnerHW, v.DegreeCap))
	}
	if len(v.OverCap) > 0 {
		bad = append(bad, fmt.Sprintf("nodes exceeded their own degree cap: %v", v.OverCap))
	}
	if len(v.NonOwnerDriven) > 0 {
		bad = append(bad, fmt.Sprintf("non-owner drove prefetches: %v", v.NonOwnerDriven))
	}
	if v.LinearViolations > 0 {
		bad = append(bad, fmt.Sprintf("%d linearity violations", v.LinearViolations))
	}
	if v.PeerRefused > 0 {
		bad = append(bad, fmt.Sprintf("%d peer requests sent to a node that does not own the file", v.PeerRefused))
	}
	if v.BufLive != 0 {
		bad = append(bad, fmt.Sprintf("%d block buffers leaked", v.BufLive))
	}
	if len(v.UnselectedObserved) > 0 {
		bad = append(bad, fmt.Sprintf("%d observed faults outside the plan's selected set (first: %s)",
			len(v.UnselectedObserved), v.UnselectedObserved[0]))
	}
	if o := v.Outcomes; o.OK+o.Refused+o.Indeterminate+o.NoConn != o.Steps {
		bad = append(bad, fmt.Sprintf("%d step outcomes recorded for %d trace steps (%v)",
			o.OK+o.Refused+o.Indeterminate+o.NoConn, o.Steps, o))
	}
	if v.DataMismatches > 0 {
		bad = append(bad, fmt.Sprintf("%d data mismatches vs oracle", v.DataMismatches))
	}
	if len(v.UnexpectedErrors) > 0 {
		bad = append(bad, fmt.Sprintf("%d unexpected errors (first: %s)",
			len(v.UnexpectedErrors), v.UnexpectedErrors[0]))
	}
	if len(bad) == 0 {
		return nil
	}
	return fmt.Errorf("chaos: invariants violated: %s", strings.Join(bad, "; "))
}

// Result is everything one chaos run produced.
type Result struct {
	Seed     uint64
	Nodes    int
	Requests int
	Reads    int
	ReadHits int
	Writes   int
	Redials  int
	Elapsed  time.Duration

	Injected int64
	Report   faultinject.Report
	// PlanDigest hashes the plan's full selected-site set over the
	// run's universe — a pure function of (seed, plan, trace,
	// topology). Two runs with the same seed report the same value, and
	// every observed fault site belongs to the set it hashes; this is
	// the token a failing seed is replayed against.
	PlanDigest uint64
	Close      map[lapcache.CloseReason]uint64
	Inv        Invariants
}

// String renders the result for logs and EXPERIMENTS.md.
func (r Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos: seed=%d nodes=%d requests=%d (reads=%d hits=%d writes=%d) redials=%d in %v\n",
		r.Seed, r.Nodes, r.Requests, r.Reads, r.ReadHits, r.Writes, r.Redials, r.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(&b, "faults: injected=%d sites=%d plan_digest=%016x observed_digest=%016x\n",
		r.Injected, len(r.Report.Sites), r.PlanDigest, r.Report.Digest())
	reasons := make([]string, 0, len(r.Close))
	for reason, n := range r.Close {
		reasons = append(reasons, fmt.Sprintf("%s=%d", reason, n))
	}
	sort.Strings(reasons)
	fmt.Fprintf(&b, "closes: %s\n", strings.Join(reasons, " "))
	fmt.Fprintf(&b, "invariants: ownerHW=%d/cap=%d overCap=%d nonOwnerDriven=%d linearViol=%d peerRefused=%d bufLive=%d mismatches=%d unexpected=%d injectedErrs=%d transportErrs=%d refused=%d outcomes=%v wedged=%v\n",
		r.Inv.MaxOwnerHW, r.Inv.DegreeCap, len(r.Inv.OverCap), len(r.Inv.NonOwnerDriven), r.Inv.LinearViolations, r.Inv.PeerRefused, r.Inv.BufLive,
		r.Inv.DataMismatches, len(r.Inv.UnexpectedErrors), r.Inv.InjectedErrors,
		r.Inv.TransportErrors, r.Inv.RefusedForwards, r.Inv.Outcomes, r.Inv.Wedged)
	if err := r.Inv.Check(); err != nil {
		fmt.Fprintf(&b, "VERDICT: FAIL — %v\n", err)
	} else {
		fmt.Fprintf(&b, "VERDICT: all invariants held\n")
	}
	return b.String()
}

// Run executes one chaos run end to end: generate, boot, replay under
// faults, tear down, audit. The returned error covers harness
// failures (could not boot, could not dial); invariant verdicts live
// in Result.Inv — callers decide how hard to fail via Inv.Check.
func Run(cfg Config) (Result, error) {
	plan := faultPlan(cfg.Seed)
	inj, err := faultinject.New(plan)
	if err != nil {
		return Result{}, err
	}

	params := cfg.Charisma
	params.Seed = cfg.Seed
	tr, err := workload.GenerateCharisma(params)
	if err != nil {
		return Result{}, err
	}

	// This map IS the runtime keyspace: the engines and the
	// selected-site enumeration must share it exactly.
	fileBlocks := engineFileBlocks(tr, params.BlockSize)

	res := Result{Seed: cfg.Seed, Nodes: fleetSize}
	selected, planDigest := selectedSites(inj, fleetSize, fileBlocks)
	res.PlanDigest = planDigest

	// Node i's stable name is nI; every fault label derives from these,
	// never from ephemeral ports, so site sets compare across runs.
	nodeName := func(i int) string { return fmt.Sprintf("n%d", i) }

	// AdaptiveVictim gives the victim the feedback-controlled degree
	// policy, strict everywhere else.
	victim := int(cfg.Seed % fleetSize)
	algFor := func(i int) core.AlgSpec {
		if cfg.AdaptiveVictim && i == victim {
			return core.SpecAdAgrISPPM1
		}
		return core.SpecLnAgrISPPM1
	}

	mkcfg := func(i int, addrs []string) lapcache.Config {
		return lapcache.Config{
			Alg:         algFor(i),
			BlockSize:   blockSize,
			CacheBlocks: cacheBlocks,
			Workers:     8,
			QueueLen:    128,
			FileBlocks:  fileBlocks,
			// Not strict: a linearity breach must be reported as a
			// failed invariant, not a panic that kills the harness.
			StrictLinear: false,
			PoisonBufs:   true,
			Store:        inj.WrapStore(lapcache.NewMemStore(blockSize, 0)),
		}
	}
	opts := cluster.StartLocalOpts{
		TweakNode: func(i int, ncfg *cluster.Config) {
			peers := ncfg.Peers
			ncfg.PingInterval = 20 * time.Millisecond
			ncfg.BackoffMax = 200 * time.Millisecond
			// Healthy calls here are sub-millisecond and injected stalls
			// tens of milliseconds; a second of silence is a wedged peer,
			// which the connection's watchdog severs after 1 to 1.5 s,
			// well inside replayTimeout.
			ncfg.PeerCallTimeout = time.Second
			ncfg.DialFunc = func(addr string) (*lapclient.Conn, error) {
				to := -1
				for j, a := range peers {
					if a == addr {
						to = j
						break
					}
				}
				link := fmt.Sprintf("peer:%s->%s", nodeName(i), nodeName(to))
				if err := inj.DialFault(link); err != nil {
					return nil, err
				}
				return lapclient.DialConnWith(addr, cluster.PeerWindow, func(c net.Conn) net.Conn {
					return inj.WrapConn(c, link)
				})
			}
		},
		TweakServer: func(i int, srv *lapcache.Server) {
			srv.IdleTimeout = 2 * time.Second
			// Sharded accept path on every node: the invariant audit
			// (linearity, close-reason taxonomy, buffer leaks) must hold
			// identically with conn→shard pinning in play.
			srv.Shards = 2
			srv.ConnWrap = func(c net.Conn) net.Conn {
				return inj.WrapConn(c, "accept@"+nodeName(i))
			}
		},
		// Replay while the mesh is still forming: forwards that outrun
		// an (injected-fault-ridden) dial are refused with the owner
		// unreachable, which is one of the paths this harness exists to
		// exercise.
		NoWaitReady: true,
	}

	nodes, stop, err := cluster.StartLocalWith(fleetSize, mkcfg, opts)
	if err != nil {
		return Result{}, err
	}
	stopped := false
	defer func() {
		if !stopped {
			stop()
		}
	}()

	// Replay under a wedge watchdog: the run must terminate on its own
	// inside the timeout, deadlines and refused forwards doing their job.
	a := &audit{}
	sources := make([]lapclient.Source, len(nodes))
	for i, m := range nodes {
		sources[i] = &nodeClient{addr: m.Addr, node: m.Node, budget: redialBudget}
	}
	done := make(chan struct{})
	start := time.Now()
	go func() {
		lapclient.Replay(tr, sources, blockSize, lapclient.ReplayOptions{}, a)
		close(done)
	}()

	select {
	case <-done:
	case <-time.After(replayTimeout):
		res.Inv.Wedged = true
	}
	res.Elapsed = time.Since(start)
	for _, s := range sources {
		res.Redials += s.(*nodeClient).close()
	}

	// A wedged replay's goroutines may still be recording: read the
	// audit under its lock.
	a.mu.Lock()
	res.Requests, res.Reads, res.ReadHits, res.Writes = tr.TotalSteps(), a.reads, a.hits, a.writes
	res.Inv.Outcomes, res.Inv.Outcomes.Steps = a.outcomes, res.Requests
	res.Inv.DataMismatches, res.Inv.InjectedErrors, res.Inv.TransportErrors = a.mismatches, a.injectedErrs, a.transportErrs
	res.Inv.UnexpectedErrors = append([]string(nil), a.unexpected...)
	if a.unexpectedN > len(a.unexpected) {
		res.Inv.UnexpectedErrors = append(res.Inv.UnexpectedErrors,
			fmt.Sprintf("... and %d more", a.unexpectedN-len(a.unexpected)))
	}
	a.mu.Unlock()

	// Audit the live cluster before teardown: counters, high-water
	// marks, ownership.
	res.Close = make(map[lapcache.CloseReason]uint64)
	for _, m := range nodes {
		snap := m.Engine.Snapshot()
		res.Inv.RefusedForwards += snap.RemoteFallbacks
		res.Inv.LinearViolations += snap.LinearViolations
		res.Inv.PeerRefused += snap.PeerRefused
		for reason, n := range m.Server.CloseCounts() {
			res.Close[reason] += n
		}
		// Each node's marks are bounded by its own engine's policy cap:
		// in a mixed fleet (AdaptiveVictim) the strict nodes still may
		// not exceed 1 even though the fleet-wide DegreeCap is wider.
		nodeCap := algFor(m.Index).MaxOutstanding
		if nodeCap > res.Inv.DegreeCap {
			res.Inv.DegreeCap = nodeCap
		}
		for f, hw := range m.Engine.HighWaters() {
			if hw == 0 {
				continue
			}
			if !m.Node.Owned(f) {
				res.Inv.NonOwnerDriven = append(res.Inv.NonOwnerDriven,
					fmt.Sprintf("file %d on non-owner %s (hw=%d)", f, m.Addr, hw))
			}
			if hw > nodeCap {
				res.Inv.OverCap = append(res.Inv.OverCap,
					fmt.Sprintf("file %d on n%d: hw=%d > cap %d", f, m.Index, hw, nodeCap))
			}
			if hw > res.Inv.MaxOwnerHW {
				res.Inv.MaxOwnerHW = hw
			}
		}
	}
	sort.Strings(res.Inv.NonOwnerDriven)
	sort.Strings(res.Inv.OverCap)

	// Teardown, then the leak audit: with servers drained, engines
	// stopped and caches cleared, every Get has seen its final Release.
	stop()
	stopped = true
	for _, m := range nodes {
		res.Inv.DrainedBufs += m.Engine.DrainCache()
		res.Inv.BufLive += m.Engine.BufLive()
	}

	res.Injected = inj.Total()
	res.Report = inj.Report()
	res.Inv.UnselectedObserved = unselectedObserved(res.Report, selected)
	return res, nil
}

// engineFileBlocks converts each file's extent from the trace's block
// units (CHARISMA's 8 KiB, traceBlockSize bytes) to the engines'
// blockSize, rounding up.
func engineFileBlocks(tr *workload.Trace, traceBlockSize int64) map[blockdev.FileID]blockdev.BlockNo {
	out := make(map[blockdev.FileID]blockdev.BlockNo, len(tr.FileBlocks))
	for f, nb := range tr.FileBlocks {
		bytes := int64(nb) * traceBlockSize
		out[f] = blockdev.BlockNo((bytes + blockSize - 1) / blockSize)
	}
	return out
}

// oracleCheck verifies data against the deterministic fill pattern,
// returning the index of the first corrupt byte or -1. Every block of
// every file always reads back as FillPattern(b): never-written blocks
// synthesize it and replayed writes carry nil payloads, which the
// server materializes as the same pattern.
func oracleCheck(f blockdev.FileID, start blockdev.BlockNo, data []byte) int {
	want := make([]byte, blockSize)
	for i := 0; i*blockSize < len(data); i++ {
		b := blockdev.BlockID{File: f, Block: start + blockdev.BlockNo(i)}
		lapcache.FillPattern(b, want)
		chunk := data[i*blockSize:]
		if len(chunk) > blockSize {
			chunk = chunk[:blockSize]
		}
		for j := range chunk {
			if chunk[j] != want[j] {
				return i*blockSize + j
			}
		}
	}
	return -1
}
