package cluster

import (
	"bytes"
	"net"
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/lapcache"
	"repro/internal/lapclient"
	"repro/internal/wire"
	"repro/internal/workload"
)

// gossipTweak starts the failure detector on a node with test-speed
// gossip: every node keeps the full initial ring (Peers) so traffic
// flows immediately, while the detector — every node seeded off node
// 0, which joins itself — owns every subsequent move.
func gossipTweak(suspicion time.Duration) func(i int, cfg *Config) {
	return func(_ int, cfg *Config) {
		cfg.Join = []string{cfg.Peers[0]}
		cfg.GossipInterval = 20 * time.Millisecond
		cfg.SuspicionTimeout = suspicion
	}
}

// startDynamicCluster boots an n-node cluster with the detector on
// (gossip over loopback UDP on the same ports the TCP servers use).
func startDynamicCluster(t *testing.T, n int, tweakEng func(cfg *lapcache.Config)) []*LocalNode {
	t.Helper()
	nodes := startClusterWith(t, n, tweakEng, StartLocalOpts{TweakNode: gossipTweak(200 * time.Millisecond)})
	waitConverged(t, nodes, n)
	return nodes
}

// waitConverged blocks until every node's ring has exactly n members
// and its peer connections are dialed. Gossip views grow incrementally —
// a node's first view may hold only itself and its seed, transiently
// shrinking the ring — so placement-sensitive tests must not trust
// ownership until the fleet agrees.
func waitConverged(t *testing.T, nodes []*LocalNode, n int) {
	t.Helper()
	waitFor(t, "membership convergence", func() bool {
		for _, m := range nodes {
			if len(m.Node.MemberAddrs()) != n {
				return false
			}
		}
		return true
	})
	for _, m := range nodes {
		if err := m.Node.WaitReady(5 * time.Second); err != nil {
			t.Fatalf("peers not ready after convergence: %v", err)
		}
	}
}

// TestDynamicFailoverReplicaServes is the tentpole's headline path:
// with R=2, a write acked FlagReplicated survives its owner's death —
// the failure detector convicts the silent owner, consistent hashing
// promotes exactly the ring successor (which holds every replicated
// block in memory), and a third node's read comes back as a remote
// memory hit with the written bytes, not a degrade to the local
// store's synthesized pattern.
func TestDynamicFailoverReplicaServes(t *testing.T) {
	nodes := startDynamicCluster(t, 3, nil)
	f := fileOwnedBy(t, nodes, 1)

	// Identify the replica successor and the bystander.
	owners := nodes[0].Node.ring().Owners(f, 2)
	if len(owners) != 2 {
		t.Fatalf("ring owners are %v, want owner+successor", owners)
	}
	if owners[0] != nodes[1].Addr {
		t.Fatalf("owner mismatch: %v vs %s", owners, nodes[1].Addr)
	}
	var succ, bystander *LocalNode
	for _, m := range nodes {
		switch m.Addr {
		case owners[0]:
		case owners[1]:
			succ = m
		default:
			bystander = m
		}
	}

	// Write real (non-pattern) data through the bystander; the ack must
	// be the durable one: owner + successor both installed it.
	const nblocks = 4
	data := bytes.Repeat([]byte{0xA5}, nblocks*testBlockSize)
	replicated, err := writeVia(t, bystander, 0, f, 0, nblocks, data)
	if err != nil {
		t.Fatalf("write: %v", err)
	}
	if !replicated {
		t.Fatal("write not acked replicated with the whole ring alive")
	}
	if s := succ.Engine.Snapshot(); s.ReplicaInstalls == 0 {
		t.Error("successor recorded no replica installs")
	}

	// Kill the owner; gossip convicts it and the ring moves.
	nodes[1].Kill()
	waitFor(t, "ring to shrink to 2 members", func() bool {
		return len(bystander.Node.MemberAddrs()) == 2 && len(succ.Node.MemberAddrs()) == 2
	})
	if got := bystander.Node.ring().Owners(f, 1)[0]; got != succ.Addr {
		t.Fatalf("new owner is %s, want the old successor %s (consistent hashing must promote the replica)", got, succ.Addr)
	}

	// The bystander's read now lands on the successor's memory.
	got, hit, err := readCopy(bystander.Engine, f, 0, nblocks)
	if err != nil {
		t.Fatalf("read after failover: %v", err)
	}
	if !hit {
		t.Error("replica had every block in memory; read should be a remote hit")
	}
	if !bytes.Equal(got, data) {
		t.Error("read after failover returned wrong bytes (replica did not serve the acked write)")
	}
	if s := bystander.Engine.Snapshot(); s.StoreReads != 0 {
		t.Errorf("bystander degraded to its local store (%d reads); the replica path was the point", s.StoreReads)
	}
}

// TestDynamicReplicaFallbackBeforeConviction covers the suspicion
// window: the owner is unreachable but not yet convicted, so the ring
// has not moved — FetchSpan falls back to the R=2 successor directly
// and read-repairs the span into the reader's local store.
func TestDynamicReplicaFallbackBeforeConviction(t *testing.T) {
	nodes := startDynamicCluster(t, 3, func(cfg *lapcache.Config) {})
	f := fileOwnedBy(t, nodes, 1)
	owners := nodes[0].Node.ring().Owners(f, 2)
	var bystander *LocalNode
	for _, m := range nodes {
		if m.Addr != owners[0] && m.Addr != owners[1] {
			bystander = m
		}
	}

	// Write through the owner itself: the bystander must not have the
	// blocks locally (a forwarded write installs write-through on the
	// writer), or its read never exercises the remote path.
	const nblocks = 2
	data := bytes.Repeat([]byte{0x5A}, nblocks*testBlockSize)
	if replicated, err := writeVia(t, nodes[1], 0, f, 0, nblocks, data); err != nil || !replicated {
		t.Fatalf("replicated write: %v (replicated=%v)", err, replicated)
	}

	// Cut only the owner's TCP server: gossip keeps running, so the
	// ring holds still while the forward path is dead.
	nodes[1].Server.Close()
	waitFor(t, "replica-served read", func() bool {
		got, _, err := readCopy(bystander.Engine, f, 0, nblocks)
		return err == nil && bytes.Equal(got, data)
	})
	waitFor(t, "read-repair write-through", func() bool {
		return bystander.Engine.Snapshot().ReadRepairs > 0
	})
	// Ownership must NOT have moved yet — the detector still counts the
	// owner (gossip is alive), only its data port is down.
	if got := bystander.Node.ring().Owners(f, 1)[0]; got != nodes[1].Addr {
		t.Errorf("ring moved on an unconvicted owner: owner now %s", got)
	}
}

// TestDynamicRecoveryReprobesOwnership: files that degraded to the
// local store while their owner was down go back to forwarding once it
// is redialed, without a process restart. Nothing caches the degrade
// (each forward to a down peer falls back at the call), so recovery
// moves no epoch: the ring alone decides ownership.
func TestDynamicRecoveryReprobesOwnership(t *testing.T) {
	nodes := startCluster(t, 3, nil) // no detector: only forwarding recovers
	f := fileOwnedBy(t, nodes, 1)

	if _, _, err := readCopy(nodes[0].Engine, f, 0, 2); err != nil {
		t.Fatalf("read before kill: %v", err)
	}
	nodes[1].Kill()
	waitFor(t, "degraded read", func() bool {
		_, _, err := readCopy(nodes[0].Engine, f, 4, 2)
		return err == nil && nodes[0].Node.PeerDown(nodes[1].Addr)
	})

	if err := nodes[1].Restart(5 * time.Second); err != nil {
		t.Fatalf("restart: %v", err)
	}
	waitFor(t, "peer redialed", func() bool {
		return !nodes[0].Node.PeerDown(nodes[1].Addr)
	})
	// Forwarding must resume: remote reads grow again, fallbacks stop.
	before := nodes[0].Engine.Snapshot()
	waitFor(t, "forwarding to resume", func() bool {
		if _, _, err := readCopy(nodes[0].Engine, f, 8, 2); err != nil {
			return false
		}
		s := nodes[0].Engine.Snapshot()
		return s.RemoteReads > before.RemoteReads && s.RemoteFallbacks == before.RemoteFallbacks
	})
}

// TestDynamicHandoffMovesBlocksUnderBudget: blocks stranded on a node
// that owns neither the file nor its replica slot get pushed to the
// owner by RunHandoff — and the push is metered to the byte/s budget.
func TestDynamicHandoffMovesBlocksUnderBudget(t *testing.T) {
	const bps = 64 << 10
	nodes := startClusterWith(t, 3, nil, StartLocalOpts{TweakNode: func(i int, cfg *Config) {
		gossipTweak(200*time.Millisecond)(i, cfg)
		cfg.HandoffBps = bps
	}})
	waitConverged(t, nodes, 3)

	// Find a file whose owner and successor are both NOT node 0, then
	// strand its blocks on node 0 via the peer-write path (FlagPeer
	// serves locally whatever the ring says).
	var f blockdev.FileID
	for cand := blockdev.FileID(1); cand < 10000; cand++ {
		ow := nodes[0].Node.ring().Owners(cand, 2)
		if ow[0] != nodes[0].Addr && ow[1] != nodes[0].Addr {
			f = cand
			break
		}
	}
	if f == 0 {
		t.Fatal("no file placed off node 0")
	}
	const nblocks = 32
	if _, err := writeVia(t, nodes[0], wire.FlagPeer, f, 0, nblocks, nil); err != nil {
		t.Fatalf("strand blocks: %v", err)
	}

	ownerAddr := nodes[0].Node.ring().Owners(f, 1)[0]
	var owner *LocalNode
	for _, m := range nodes {
		if m.Addr == ownerAddr {
			owner = m
		}
	}
	ownerBefore := owner.Engine.Snapshot().ReplicaInstalls

	start := time.Now()
	moved := nodes[0].Node.RunHandoff()
	elapsed := time.Since(start)
	if moved < nblocks {
		t.Fatalf("handoff moved %d blocks, want >= %d", moved, nblocks)
	}
	st := nodes[0].Node.HandoffStats()
	if st.BlocksMoved < nblocks || st.BytesMoved < nblocks*testBlockSize {
		t.Errorf("stats %+v, want >= %d blocks / %d bytes", st, nblocks, nblocks*testBlockSize)
	}
	waitFor(t, "owner to install handed-off blocks", func() bool {
		return owner.Engine.Snapshot().ReplicaInstalls >= ownerBefore+nblocks
	})

	// Budget: 32 blocks × 512B = 16KiB against a 64KiB/s budget with a
	// one-eighth-second burst (8KiB) ⇒ at least ~125ms metered. Allow
	// slack for coarse timers, but a free-running firehose (a few ms)
	// must fail.
	if elapsed < 80*time.Millisecond {
		t.Errorf("handoff of %d bytes took %v: budget of %d B/s not enforced", st.BytesMoved, elapsed, bps)
	}
	if rate := float64(st.BytesMoved) / elapsed.Seconds(); rate > bps*2 {
		t.Errorf("handoff rate %.0f B/s more than doubles the %d B/s budget", rate, bps)
	}
}

// TestDynamicOwnershipMovesLinear is the acceptance replay: a CHARISMA
// trace against a 3-node gossiping cluster with linear-aggressive
// prefetching while a FOURTH node joins mid-replay, moving ~1/4 of the
// keyspace. Under -race and StrictLinear, every engine must keep each
// file's outstanding-prefetch high-water at exactly 1, and prefetch
// history may exist only on nodes that owned the file under some
// epoch — ownership in motion must never mint a second simultaneous
// chain, the xFS failure mode.
func TestDynamicOwnershipMovesLinear(t *testing.T) {
	p := experiment.TinyScale().Charisma
	tr, err := workload.GenerateCharisma(p)
	if err != nil {
		t.Fatalf("generate trace: %v", err)
	}

	mkcfg := func(i int, addrs []string) lapcache.Config {
		return lapcache.Config{
			Alg:          core.SpecLnAgrISPPM1,
			BlockSize:    testBlockSize,
			CacheBlocks:  4096,
			Workers:      8,
			QueueLen:     128,
			FileBlocks:   tr.FileBlocks,
			StrictLinear: true,
			Store:        lapcache.NewMemStore(testBlockSize, 0),
		}
	}
	var addrs []string
	nodes, stop, err := StartLocalWith(3, func(i int, as []string) lapcache.Config {
		addrs = as
		return mkcfg(i, as)
	}, StartLocalOpts{TweakNode: gossipTweak(200 * time.Millisecond)})
	if err != nil {
		t.Fatalf("StartLocalWith: %v", err)
	}
	t.Cleanup(stop)
	waitConverged(t, nodes, 3)

	// The joiner: assembled by hand so it can enter mid-replay. It
	// seeds off node 0 and starts with a ring of one — gossip brings it
	// the fleet, and the fleet it.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen joiner: %v", err)
	}
	joiner := &LocalNode{Addr: ln.Addr().String(), Index: 3, addrs: []string{ln.Addr().String()}, mkcfg: mkcfg,
		opts: StartLocalOpts{TweakNode: func(_ int, cfg *Config) {
			cfg.Peers = nil
			cfg.Join = []string{nodes[0].Addr}
			cfg.GossipInterval = 20 * time.Millisecond
			cfg.SuspicionTimeout = 200 * time.Millisecond
		}}}
	if err := joiner.boot(ln); err != nil {
		t.Fatalf("boot joiner: %v", err)
	}
	t.Cleanup(joiner.Kill)

	joined := make(chan struct{})
	go func() {
		defer close(joined)
		time.Sleep(20 * time.Millisecond) // let the replay get going
		if err := joiner.Node.Start(); err != nil {
			t.Errorf("joiner start: %v", err)
		}
	}()

	res, err := lapclient.ReplayTrace(addrs, tr, lapclient.ReplayOptions{})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if res.Requests != tr.TotalSteps() {
		t.Errorf("replayed %d requests, trace has %d", res.Requests, tr.TotalSteps())
	}
	<-joined
	waitFor(t, "every node to see 4 members", func() bool {
		for _, m := range append(append([]*LocalNode{}, nodes...), joiner) {
			if len(m.Node.MemberAddrs()) != 4 {
				return false
			}
		}
		return true
	})

	all := append(append([]*LocalNode{}, nodes...), joiner)
	var violations uint64
	moved := 0
	prefetchedFiles := 0
	for i, m := range all {
		s := m.Engine.Snapshot()
		violations += s.LinearViolations
		for f, hw := range m.Engine.Ledger().HighWaters() {
			if hw == 0 {
				continue
			}
			prefetchedFiles++
			if hw != 1 {
				t.Errorf("file %d high-water %d on node %d, want exactly 1", f, hw, i)
			}
			// History is legitimate only on a node that owned the file
			// under some installed ring.
			if !m.Node.OwnedEver(f) {
				t.Errorf("node %d has prefetch history for file %d it never owned", i, f)
			}
			if owner, _ := nodes[0].Node.OwnerOf(f); owner != m.Addr {
				moved++ // owned under an earlier epoch: ownership moved mid-run
			}
		}
	}
	if violations != 0 {
		t.Errorf("%d linear violations across the cluster", violations)
	}
	if prefetchedFiles == 0 {
		t.Error("prefetching never engaged anywhere in the cluster")
	}
	t.Logf("replay: %d reqs; %d files prefetched (HW=1 each), %d with history under a superseded epoch",
		res.Requests, prefetchedFiles, moved)
}
