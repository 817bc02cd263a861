package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/blockdev"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/lapcache"
	"repro/internal/lapclient"
	"repro/internal/wire"
)

// runChurnDemo walks the gossip-membership story end to end on a
// live in-process cluster: boot three gossiping nodes, write a file
// population with R=2 replication, kill one node and show its files
// still served at replica-memory speed (not the disk latency the
// paper's cooperative cache exists to avoid), then restart it and
// watch the ring reconverge and the bounded-rate handoff repopulate
// the rejoined node. It is the CLI twin of the chaos churn invariants:
// the same machinery, narrated instead of audited.
func runChurnDemo() error {
	const (
		nNodes      = 3
		blockSize   = 512
		nFiles      = 64
		blocksPer   = 8
		diskLatency = 2 * time.Millisecond
	)

	fileBlocks := make(map[blockdev.FileID]blockdev.BlockNo, nFiles)
	for f := 0; f < nFiles; f++ {
		fileBlocks[blockdev.FileID(f)] = blocksPer
	}

	nodes, stop, err := cluster.StartLocalWith(nNodes,
		func(i int, addrs []string) lapcache.Config {
			return lapcache.Config{
				Alg:          core.SpecLnAgrISPPM1,
				BlockSize:    blockSize,
				CacheBlocks:  4096,
				Workers:      8,
				QueueLen:     128,
				FileBlocks:   fileBlocks,
				StrictLinear: true,
				Store:        lapcache.NewMemStore(blockSize, diskLatency),
			}
		},
		cluster.StartLocalOpts{TweakNode: func(i int, cfg *cluster.Config) {
			for _, a := range cfg.Peers {
				if a != cfg.Self {
					cfg.Join = append(cfg.Join, a)
				}
			}
			cfg.GossipInterval = 20 * time.Millisecond
			cfg.SuspicionTimeout = 300 * time.Millisecond
			cfg.HandoffBps = 1 << 20
			cfg.PeerCallTimeout = time.Second
		}})
	if err != nil {
		return err
	}
	defer stop()

	fmt.Printf("boot:    %d nodes, gossip membership (every 20ms, suspicion 300ms), R=2, handoff 1 MiB/s\n", nNodes)
	fmt.Printf("         store latency %v — the disk read a replica memory hit replaces\n\n", diskLatency)

	// Phase 1 — populate through node 0. Every write should come back
	// FlagReplicated: owner plus ring successor both installed it.
	conn0, err := lapclient.DialConn(nodes[0].Addr, 0)
	if err != nil {
		return err
	}
	replicated := 0
	for f := 0; f < nFiles; f++ {
		rh, _, err := conn0.Do(lapclient.Req(wire.OpWrite, 0, blockdev.FileID(f), 0, blocksPer), nil, nil)
		if err != nil {
			conn0.Close()
			return fmt.Errorf("populate file %d: %w", f, err)
		}
		if rh.Flags&wire.FlagReplicated != 0 {
			replicated++
		}
	}
	conn0.Close()
	fmt.Printf("write:   %d files x %d blocks through %s; %d/%d acked replicated (owner + successor)\n",
		nFiles, blocksPer, nodes[0].Addr, replicated, nFiles)
	if replicated == 0 {
		return fmt.Errorf("churn demo: no write was acked replicated; R=2 never engaged")
	}

	// Pick the victim: the node owning the most files, so the kill
	// moves the largest arc.
	owned := make([]int, nNodes)
	for f := 0; f < nFiles; f++ {
		for i, m := range nodes {
			if m.Node.Owned(blockdev.FileID(f)) {
				owned[i]++
			}
		}
	}
	victim := 0
	for i, n := range owned {
		if n > owned[victim] {
			victim = i
		}
	}
	var victimFiles []blockdev.FileID
	for f := 0; f < nFiles; f++ {
		if nodes[victim].Node.Owned(blockdev.FileID(f)) {
			victimFiles = append(victimFiles, blockdev.FileID(f))
		}
	}
	survivor := (victim + 1) % nNodes
	fmt.Printf("ring:    files per node %v; killing %s (owns %d files)\n\n",
		owned, nodes[victim].Addr, len(victimFiles))

	// Phase 2 — kill, wait for the survivors to convict it and move
	// the ring.
	nodes[victim].Kill()
	start := time.Now()
	if err := waitMembers(nodes, victim, nNodes-1, 10*time.Second); err != nil {
		return err
	}
	fmt.Printf("kill:    survivors convicted %s and moved the ring in %v\n",
		nodes[victim].Addr, time.Since(start).Round(time.Millisecond))

	// Phase 3 — read every file the dead node owned, via a survivor.
	// The moved arcs land on each file's old ring successor: exactly
	// where the R=2 copies already sit, so these are memory hits.
	connS, err := lapclient.DialConn(nodes[survivor].Addr, 0)
	if err != nil {
		return err
	}
	t0 := time.Now()
	for _, f := range victimFiles {
		if _, _, err := connS.Do(lapclient.Req(wire.OpRead, wire.FlagWantData, f, 0, blocksPer), nil, nil); err != nil {
			connS.Close()
			return fmt.Errorf("read file %d after kill: %w", f, err)
		}
	}
	perRead := time.Since(t0) / time.Duration(len(victimFiles))
	connS.Close()
	fmt.Printf("reads:   %d dead-owner files served in %v/read — replica memory, vs the %v disk read without R=2\n",
		len(victimFiles), perRead.Round(10*time.Microsecond), diskLatency)
	if perRead >= diskLatency {
		return fmt.Errorf("churn demo: %v per read is not faster than the %v disk latency; replicas did not serve",
			perRead, diskLatency)
	}

	// Phase 4 — restart the victim; gossip re-admits it, the ring
	// reconverges everywhere, and the handoff pushes its arcs back
	// under the byte budget.
	start = time.Now()
	if err := nodes[victim].Restart(10 * time.Second); err != nil {
		return fmt.Errorf("restart %s: %w", nodes[victim].Addr, err)
	}
	if err := waitMembers(nodes, -1, nNodes, 10*time.Second); err != nil {
		return err
	}
	fmt.Printf("rejoin:  %s restarted; every ring reconverged to %d members in %v\n",
		nodes[victim].Addr, nNodes, time.Since(start).Round(time.Millisecond))

	// Let the budgeted handoff move something, then report it.
	time.Sleep(500 * time.Millisecond)
	var hb, hblk uint64
	for _, m := range nodes {
		hs := m.Node.HandoffStats()
		hb += hs.BytesMoved
		hblk += hs.BlocksMoved
	}
	fmt.Printf("handoff: %d blocks (%d B) pushed to new owners under the 1 MiB/s budget\n\n", hblk, hb)

	fmt.Printf("verdict: %d/%d replicated acks, kill survived at memory speed, ring reconverged, handoff ran\n",
		replicated, nFiles)
	return nil
}

// waitMembers polls every live node's ring until it sees want members
// (skip excludes the killed node's index; -1 skips none).
func waitMembers(nodes []*cluster.LocalNode, skip, want int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		ok := true
		for i, m := range nodes {
			if i == skip {
				continue
			}
			got := m.Node.MemberAddrs()
			sort.Strings(got)
			if len(got) != want {
				ok = false
				break
			}
		}
		if ok {
			return nil
		}
		if time.Now().After(deadline) {
			views := make(map[string]int)
			for i, m := range nodes {
				if i != skip {
					views[m.Addr] = len(m.Node.MemberAddrs())
				}
			}
			return fmt.Errorf("churn demo: rings never converged to %d members within %v: %v", want, timeout, views)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
