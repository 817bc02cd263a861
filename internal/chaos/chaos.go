// Package chaos is the fault-injection harness for the lapcache
// runtime: it boots a live in-process cluster, replays a CHARISMA
// trace through it while a seeded faultinject.Plan misbehaves at the
// store, wire and peer layers, and checks the invariants the system
// claims to keep under failure:
//
//   - Linearity: per file, only the ring owner ever drives prefetches,
//     with an outstanding high-water of at most the degree policy's cap
//     — exactly 1 under the default StrictLinear policy, ≤ the
//     controller's hard K under an adaptive window — faults included.
//   - Buffer lifecycle: with poison mode on, no buffer is written
//     after release, and after teardown the pool's live count is zero
//     (no leak survived any error path).
//   - Error integrity: every error a client sees is either an
//     expected injection (it carries the faultinject marker) or a
//     tolerated transport failure on a link the plan targets; reads
//     that succeed return bit-exact oracle data (the deterministic
//     fill pattern), and the run terminates — no wedge, ever.
//
// Churn mode (Config.Churn) additionally boots the cluster with
// gossip membership and R=2 replication, drops and delays
// gossip datagrams per the plan, and kills one seed-chosen node
// mid-replay, restarting it after the suspicion window has convicted
// it. Three more invariants then apply:
//
//   - No lost acked write: every write the cluster acknowledged as
//     replicated is still present in at least one surviving backing
//     store after the churn — killing either copy holder may not lose
//     acked data.
//   - Convergent ownership after heal: once the killed node is back,
//     every member's ring reconverges to the full fleet within a
//     bounded window (the restarted node outranks its own tombstone).
//   - Bounded handoff: the bytes each node's rebalancing loop moved
//     stay under its configured byte/s budget for the run's duration.
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
	"sync"
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
	// Churn starts the cluster's gossip failure detector with
	// R=2 replication and a bounded-rate handoff loop, then kills one
	// seed-chosen node mid-replay and restarts it after conviction.
	// The plan's gossip rules only fire in this mode, and the
	// replication/convergence/handoff invariants only bind here.
	Churn bool
	// AdaptiveVictim runs the adaptive variant of the fleet's
	// algorithm on the seed-chosen victim node (the one Churn kills),
	// leaving the rest pinned strict — the mixed-fleet shape of a
	// staged rollout. The victim's ledger is audited against the
	// adaptive cap, everyone else's against 1.
	AdaptiveVictim bool
}

// The fleet every run boots: three nodes of 4096 512-byte blocks, each
// running the paper's linear aggressive IS_PPM:1 (AdaptiveVictim
// aside). replayTimeout bounds the whole replay; exceeding it is the
// wedge invariant failing. Each node's client may redial redialBudget
// times, churnRedialBudget under Churn, where refused dials to the
// down victim burn budget fast and its client must still recover after
// the restart.
const (
	fleetSize         = 3
	blockSize         = 512
	cacheBlocks       = 4096
	replayTimeout     = 60 * time.Second
	redialBudget      = 64
	churnRedialBudget = 512
)

// Churn-mode tuning. The kill lands early in the replay; the down
// window outlasts the suspicion timeout so the victim is convicted
// and ownership actually moves before the heal. The handoff budget is
// small enough that a budget-accounting bug would trip the audit on a
// tiny-scale run.
const (
	churnHandoffBps  = 1 << 20 // 1 MiB/s rebalancing budget per node
	churnSuspicion   = 250 * time.Millisecond
	churnKillAt      = 150 * time.Millisecond
	churnDownFor     = 600 * time.Millisecond
	convergenceGrace = 10 * time.Second
)

// Invariants is the harness's verdict, one field per claim.
type Invariants struct {
	// Linearity. DegreeCap is the largest per-file bound any node's
	// policy allows: MaxOwnerHW must stay within it, and OverCap lists
	// nodes whose ledger exceeded their *own* engine's cap — a mixed
	// fleet is audited per node.
	DegreeCap        int      `json:"degree_cap,omitempty"`
	MaxOwnerHW       int      `json:"max_owner_hw"`      // must be <= DegreeCap
	OverCap          []string `json:"over_cap"`          // must be empty
	NonOwnerDriven   []string `json:"non_owner_driven"`  // must be empty
	LinearViolations uint64   `json:"linear_violations"` // must be 0
	// Buffer lifecycle.
	BufLive     int64 `json:"buf_live"`     // must be 0 after teardown
	DrainedBufs int   `json:"drained_bufs"` // informational
	// Determinism: observed fault sites that the plan's pure selection
	// function would not pick — any entry is a selection-determinism
	// bug in the injector.
	UnselectedObserved []string `json:"unselected_observed"` // must be empty
	// Error/data integrity.
	DataMismatches   int      `json:"data_mismatches"`   // must be 0
	UnexpectedErrors []string `json:"unexpected_errors"` // must be empty
	InjectedErrors   int      `json:"injected_errors"`   // informational
	TransportErrors  int      `json:"transport_errors"`  // tolerated iff plan targets the wire
	DegradedReads    uint64   `json:"degraded_reads"`    // informational
	Wedged           bool     `json:"wedged"`            // must be false
	// Replication durability (churn mode): blocks acked with the
	// replicated flag, and any of them missing from every surviving
	// backing store after the churn.
	AckedReplicated int      `json:"acked_replicated"`  // informational
	LostAckedWrites []string `json:"lost_acked_writes"` // must be empty
	// Membership convergence after heal: members whose ring never
	// reconverged to the full fleet inside the grace window.
	Unconverged []string `json:"unconverged"` // must be empty
	// Bounded rebalancing: total handoff bytes, and any node whose
	// moved bytes exceeded its byte/s budget for the run's duration.
	HandoffBytes      uint64   `json:"handoff_bytes"`       // informational
	HandoffBlocks     uint64   `json:"handoff_blocks"`      // informational
	HandoffOverBudget []string `json:"handoff_over_budget"` // must be empty
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
	if v.BufLive != 0 {
		bad = append(bad, fmt.Sprintf("%d block buffers leaked", v.BufLive))
	}
	if len(v.UnselectedObserved) > 0 {
		bad = append(bad, fmt.Sprintf("%d observed faults outside the plan's selected set (first: %s)",
			len(v.UnselectedObserved), v.UnselectedObserved[0]))
	}
	if v.DataMismatches > 0 {
		bad = append(bad, fmt.Sprintf("%d data mismatches vs oracle", v.DataMismatches))
	}
	if len(v.UnexpectedErrors) > 0 {
		bad = append(bad, fmt.Sprintf("%d unexpected errors (first: %s)",
			len(v.UnexpectedErrors), v.UnexpectedErrors[0]))
	}
	if len(v.LostAckedWrites) > 0 {
		bad = append(bad, fmt.Sprintf("%d lost acked writes: replicated-acked blocks missing from every surviving store (first: %s)",
			len(v.LostAckedWrites), v.LostAckedWrites[0]))
	}
	if len(v.Unconverged) > 0 {
		bad = append(bad, fmt.Sprintf("membership failed to converge after heal: %v", v.Unconverged))
	}
	if len(v.HandoffOverBudget) > 0 {
		bad = append(bad, fmt.Sprintf("handoff exceeded its byte budget: %v", v.HandoffOverBudget))
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
	fmt.Fprintf(&b, "invariants: ownerHW=%d/cap=%d overCap=%d nonOwnerDriven=%d linearViol=%d bufLive=%d mismatches=%d unexpected=%d injectedErrs=%d transportErrs=%d degraded=%d wedged=%v\n",
		r.Inv.MaxOwnerHW, r.Inv.DegreeCap, len(r.Inv.OverCap), len(r.Inv.NonOwnerDriven), r.Inv.LinearViolations, r.Inv.BufLive,
		r.Inv.DataMismatches, len(r.Inv.UnexpectedErrors), r.Inv.InjectedErrors,
		r.Inv.TransportErrors, r.Inv.DegradedReads, r.Inv.Wedged)
	fmt.Fprintf(&b, "churn: ackedReplicated=%d lostAcked=%d unconverged=%d handoff=%dB/%dblk overBudget=%d\n",
		r.Inv.AckedReplicated, len(r.Inv.LostAckedWrites), len(r.Inv.Unconverged),
		r.Inv.HandoffBytes, r.Inv.HandoffBlocks, len(r.Inv.HandoffOverBudget))
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

	// The trace speaks bytes in its own block units (CHARISMA's 8 KiB);
	// the engines run on blockSize. Convert each file's extent to
	// engine blocks once — this map IS the runtime keyspace, so the
	// engines and the selected-site enumeration must share it exactly.
	fileBlocks := make(map[blockdev.FileID]blockdev.BlockNo, len(tr.FileBlocks))
	for f, nb := range tr.FileBlocks {
		bytes := int64(nb) * params.BlockSize
		fileBlocks[f] = blockdev.BlockNo((bytes + blockSize - 1) / blockSize)
	}

	res := Result{Seed: cfg.Seed, Nodes: fleetSize}
	selected, planDigest := selectedSites(inj, fleetSize, fileBlocks)
	res.PlanDigest = planDigest

	// Node i's stable name is nI; every fault label derives from these,
	// never from ephemeral ports, so site sets compare across runs.
	nodeName := func(i int) string { return fmt.Sprintf("n%d", i) }

	// Raw (unwrapped) stores, by node index, for the durability audit:
	// a Restart rebuilds node i's stack through this same closure, so
	// the slice always holds each node's *current* store — the killed
	// node's old store is gone, which is exactly the loss the
	// replication invariant must survive.
	var rawMu sync.Mutex
	rawStores := make([]*lapcache.MemStore, fleetSize)

	// The victim is the node Churn kills; AdaptiveVictim also gives it
	// the feedback-controlled degree policy, strict everywhere else.
	victim := int(cfg.Seed % fleetSize)
	algFor := func(i int) core.AlgSpec {
		if cfg.AdaptiveVictim && i == victim {
			return core.SpecAdAgrISPPM1
		}
		return core.SpecLnAgrISPPM1
	}

	mkcfg := func(i int, addrs []string) lapcache.Config {
		store := lapcache.NewMemStore(blockSize, 0)
		rawMu.Lock()
		rawStores[i] = store
		rawMu.Unlock()
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
			Store:        inj.WrapStore(store, "store@"+nodeName(i)),
		}
	}
	opts := cluster.StartLocalOpts{
		TweakNode: func(i int, ncfg *cluster.Config) {
			peers := append([]string(nil), ncfg.Peers...)
			ncfg.PingInterval = 20 * time.Millisecond
			ncfg.BackoffMax = 200 * time.Millisecond
			if cfg.Churn {
				// Gossip membership with R=2 replication. Every node
				// seeds off every other, so a restarted member — the
				// would-be seed included — re-announces itself and
				// outranks its own tombstone without operator action.
				for _, a := range peers {
					if a != ncfg.Self {
						ncfg.Join = append(ncfg.Join, a)
					}
				}
				ncfg.GossipInterval = 20 * time.Millisecond
				ncfg.SuspicionTimeout = churnSuspicion
				ncfg.HandoffBps = churnHandoffBps
				// Healthy calls here are sub-millisecond and injected
				// delays single-digit ms; one second of silence means a
				// handler wait cycle, which the timeout severs.
				ncfg.PeerCallTimeout = time.Second
				ncfg.GossipIntercept = func(to string) error {
					for j, a := range peers {
						if a == to {
							return inj.GossipFault(fmt.Sprintf("gossip:%s->%s", nodeName(i), nodeName(j)))
						}
					}
					return nil
				}
			}
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
		// an (injected-fault-ridden) dial degrade to the local store,
		// which is one of the paths this harness exists to exercise.
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
	// inside the timeout, deadlines and degrade paths doing their job.
	rep := newReplayer(nodes, inj, plan, cfg.Churn, tr)
	done := make(chan struct{})
	start := time.Now()
	go func() { rep.run(); close(done) }()

	// Churn: kill one seed-chosen node under the replay's feet, leave
	// it down past conviction, then restart it on the same address.
	// At most one node is ever down — the bound R=2 replication is
	// sound against.
	churnDone := make(chan struct{})
	var churnErr error
	if cfg.Churn {
		go func() {
			defer close(churnDone)
			time.Sleep(churnKillAt)
			nodes[victim].Kill()
			time.Sleep(churnDownFor)
			for attempt := 0; ; attempt++ {
				churnErr = nodes[victim].Restart(10 * time.Second)
				if churnErr == nil || attempt == 4 {
					return
				}
				time.Sleep(100 * time.Millisecond)
			}
		}()
	} else {
		close(churnDone)
	}

	select {
	case <-done:
	case <-time.After(replayTimeout):
		res.Inv.Wedged = true
	}
	res.Elapsed = time.Since(start)
	<-churnDone
	if churnErr != nil {
		return res, fmt.Errorf("chaos: churn restart: %w", churnErr)
	}
	rep.closeClients()

	var unexpectedN int
	res.Requests, res.Reads, res.ReadHits, res.Writes, res.Redials,
		res.Inv.DataMismatches, res.Inv.InjectedErrors, res.Inv.TransportErrors,
		unexpectedN, res.Inv.UnexpectedErrors = rep.stats()
	if unexpectedN > len(res.Inv.UnexpectedErrors) {
		res.Inv.UnexpectedErrors = append(res.Inv.UnexpectedErrors,
			fmt.Sprintf("... and %d more", unexpectedN-len(res.Inv.UnexpectedErrors)))
	}

	// Heal audit: every member's ring must reconverge to the full
	// fleet — instant without churn, bounded by gossip (the restarted
	// node outranking its own tombstone) after churn.
	want := make([]string, 0, len(nodes))
	for _, m := range nodes {
		want = append(want, m.Addr)
	}
	sort.Strings(want)
	healDeadline := time.Now().Add(convergenceGrace)
	for {
		res.Inv.Unconverged = res.Inv.Unconverged[:0]
		for _, m := range nodes {
			got := append([]string(nil), m.Node.MemberAddrs()...)
			sort.Strings(got)
			if !equalAddrs(got, want) {
				res.Inv.Unconverged = append(res.Inv.Unconverged,
					fmt.Sprintf("n%d sees %d/%d members: %v", m.Index, len(got), len(want), got))
			}
		}
		if len(res.Inv.Unconverged) == 0 || time.Now().After(healDeadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Audit the live cluster before teardown: counters, ledgers,
	// ownership, handoff budgets.
	res.Close = make(map[lapcache.CloseReason]uint64)
	for _, m := range nodes {
		snap := m.Engine.Snapshot()
		res.Inv.DegradedReads += snap.RemoteFallbacks
		res.Inv.LinearViolations += snap.LinearViolations
		for reason, n := range m.Server.CloseCounts() {
			res.Close[reason] += n
		}
		// Each node's ledger is bounded by its own engine's policy cap:
		// in a mixed fleet (AdaptiveVictim) the strict nodes still may
		// not exceed 1 even though the fleet-wide DegreeCap is wider.
		nodeCap := algFor(m.Index).MaxOutstanding
		if nodeCap > res.Inv.DegreeCap {
			res.Inv.DegreeCap = nodeCap
		}
		for f, hw := range m.Engine.Ledger().HighWaters() {
			if hw == 0 {
				continue
			}
			// Ownership is audited against every ring epoch the node has
			// installed: a node legitimately holds prefetch history for a
			// file it owned before the ring moved.
			if !m.Node.OwnedEver(f) {
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
		hs := m.Node.HandoffStats()
		res.Inv.HandoffBytes += hs.BytesMoved
		res.Inv.HandoffBlocks += hs.BlocksMoved
		if bps := m.Node.HandoffBudget(); bps > 0 {
			// Allowed = rate x wall-clock since boot, plus the burst the
			// token bucket seeds and one extra second of slack for clock
			// skew between this audit and the node's own accounting.
			allowed := uint64(float64(bps)*time.Since(start).Seconds()) + uint64(bps/8) + uint64(bps)
			if hs.BytesMoved > allowed {
				res.Inv.HandoffOverBudget = append(res.Inv.HandoffOverBudget,
					fmt.Sprintf("n%d moved %d bytes, budget %d B/s allows %d", m.Index, hs.BytesMoved, bps, allowed))
			}
		}
	}
	sort.Strings(res.Inv.NonOwnerDriven)
	sort.Strings(res.Inv.OverCap)

	// Durability audit: every block the cluster acked as replicated
	// must still be present in at least one current raw store.
	// MemStore.Has distinguishes a persisted block from a synthesized
	// fill pattern — the read oracle alone cannot see this loss, since
	// a store that dropped the write would synthesize the exact bytes
	// the oracle expects.
	acked := rep.ackedBlocks()
	res.Inv.AckedReplicated = len(acked)
	rawMu.Lock()
	stores := append([]*lapcache.MemStore(nil), rawStores...)
	rawMu.Unlock()
	lost := 0
	for _, id := range acked {
		present := false
		for _, st := range stores {
			if st != nil && st.Has(id) {
				present = true
				break
			}
		}
		if !present {
			lost++
			if len(res.Inv.LostAckedWrites) < maxUnexpected {
				res.Inv.LostAckedWrites = append(res.Inv.LostAckedWrites, fmt.Sprintf("f%d:%d", id.File, id.Block))
			}
		}
	}
	if lost > len(res.Inv.LostAckedWrites) {
		res.Inv.LostAckedWrites = append(res.Inv.LostAckedWrites,
			fmt.Sprintf("... and %d more", lost-len(res.Inv.LostAckedWrites)))
	}

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

// equalAddrs reports whether two sorted address lists are identical.
func equalAddrs(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
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
