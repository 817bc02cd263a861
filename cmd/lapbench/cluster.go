package main

import (
	"fmt"

	"repro/internal/blockdev"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/lapcache"
	"repro/internal/lapclient"
	"repro/internal/workload"
)

// runClusterDemo boots a live 3-node cooperative cache inside this
// process, replays a CHARISMA trace across it (processes sharded over
// the nodes the way real clients mount their nearest cache), and
// prints the peer-tier accounting: remote traffic, degrade events,
// and the cluster-wide linearity join — per file, only the ring owner
// ever drove prefetches, with a high-water within the degree policy's
// cap: exactly 1 under strict linear, ≤ the controller's hard K when
// adaptive.
func runClusterDemo(scale experiment.Scale, adaptive bool) error {
	const nNodes = 3
	tr, err := workload.GenerateCharisma(scale.Charisma)
	if err != nil {
		return err
	}
	alg := core.SpecLnAgrISPPM1
	if adaptive {
		alg = core.SpecAdAgrISPPM1
	}

	const blockSize = 512
	nodes, stop, err := cluster.StartLocal(nNodes, func(i int, addrs []string) lapcache.Config {
		return lapcache.Config{
			Alg:          alg,
			BlockSize:    blockSize,
			CacheBlocks:  4096,
			Workers:      8,
			QueueLen:     128,
			FileBlocks:   tr.FileBlocks,
			StrictLinear: true,
			Store:        lapcache.NewMemStore(blockSize, 0),
		}
	})
	if err != nil {
		return err
	}
	defer stop()

	addrs := make([]string, nNodes)
	for i, m := range nodes {
		addrs[i] = m.Addr
	}
	fmt.Printf("cluster: %d nodes, alg=%s (degree cap %d), %d files, %d trace steps\n",
		nNodes, alg.Name(), alg.DegreeCap(), len(tr.FileBlocks), tr.TotalSteps())

	res, err := lapclient.ReplayTraceMulti(addrs, tr, lapclient.ReplayOptions{})
	if err != nil {
		return err
	}
	fmt.Printf("replay:  %d procs, %d requests in %v, client hit ratio %.3f\n\n",
		res.Procs, res.Requests, res.Elapsed.Round(0), res.HitRatio())

	fmt.Printf("%-22s %10s %10s %10s %10s %10s %6s\n",
		"node", "demandHit", "demandMiss", "remoteRead", "peerServed", "prefIssued", "maxHW")
	var remote, served, fallbacks uint64
	for _, m := range nodes {
		s := m.Engine.Snapshot()
		fmt.Printf("%-22s %10d %10d %10d %10d %10d %6d\n",
			m.Addr, s.DemandHits, s.DemandMisses, s.RemoteReads, s.PeerReadsServed,
			s.PrefetchIssued, s.MaxFileOutstandingHW)
		remote += s.RemoteReads
		served += s.PeerReadsServed
		fallbacks += s.RemoteFallbacks
	}

	// The cluster-wide join: a file may have prefetch history on its
	// ring owner only, and the per-file high-water never passes the
	// policy cap.
	owners := make(map[blockdev.FileID]int)
	maxHW, files := 0, 0
	for i, m := range nodes {
		for f, hw := range m.Engine.Ledger().HighWaters() {
			if hw == 0 {
				continue
			}
			owners[f]++
			files++
			if hw > maxHW {
				maxHW = hw
			}
			_ = i
		}
	}
	multi := 0
	for _, n := range owners {
		if n > 1 {
			multi++
		}
	}
	fmt.Printf("\npeer tier: %d remote reads forwarded, %d served for peers, %d degrade events\n",
		remote, served, fallbacks)
	cap := alg.DegreeCap()
	fmt.Printf("linearity: %d files prefetched, cluster-wide per-file high-water max = %d (cap %d), files driven by >1 node = %d\n",
		files, maxHW, cap, multi)
	if maxHW > cap || multi > 0 {
		return fmt.Errorf("cluster-wide degree bound violated (maxHW=%d, cap=%d, multi-driven=%d)", maxHW, cap, multi)
	}
	return nil
}
