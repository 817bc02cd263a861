package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/lapcache"
	"repro/internal/lapclient"
	"repro/internal/workload"
)

const testBlockSize = 512

// startCluster boots an n-node loopback cluster with a shared config
// shape and registers teardown.
func startCluster(t *testing.T, n int, tweak func(cfg *lapcache.Config)) []*LocalNode {
	t.Helper()
	return startClusterWith(t, n, tweak, StartLocalOpts{})
}

func startClusterWith(t *testing.T, n int, tweak func(cfg *lapcache.Config), opts StartLocalOpts) []*LocalNode {
	t.Helper()
	nodes, stop, err := StartLocalWith(n, func(int, []string) lapcache.Config {
		cfg := lapcache.Config{
			Alg:          core.SpecNP,
			BlockSize:    testBlockSize,
			CacheBlocks:  2048,
			StrictLinear: true,
			PoisonBufs:   true,
			Store:        lapcache.NewMemStore(testBlockSize, 0),
		}
		if tweak != nil {
			tweak(&cfg)
		}
		return cfg
	}, opts)
	if err != nil {
		t.Fatalf("StartLocal(%d): %v", n, err)
	}
	t.Cleanup(stop)
	return nodes
}

// fileOwnedBy finds a file the given member owns; the ring spreads
// files, so a short scan always finds one.
func fileOwnedBy(t *testing.T, nodes []*LocalNode, owner int) blockdev.FileID {
	t.Helper()
	for f := blockdev.FileID(1); f < 10000; f++ {
		if addr, _ := nodes[0].Node.OwnerOf(f); addr == nodes[owner].Addr {
			return f
		}
	}
	t.Fatal("no file owned by target member in 10000 tries")
	return 0
}

// readCopy demand-reads a span through a node's engine and copies the
// bytes out.
func readCopy(e *lapcache.Engine, f blockdev.FileID, off blockdev.BlockNo, nblocks int32) (data []byte, hit bool, err error) {
	bufs, hit, err := e.ReadInto(nil, f, off, nblocks)
	for _, buf := range bufs {
		data = append(data, buf.Bytes()...)
		buf.Release()
	}
	return data, hit, err
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestClusterRemoteHit is the paper's core claim in miniature: a block
// resident in a peer's memory is served to a non-owner as a remote
// memory hit — no local disk read — and the owner counts it as peer
// service.
func TestClusterRemoteHit(t *testing.T) {
	nodes := startCluster(t, 3, nil)
	f := fileOwnedBy(t, nodes, 1)

	// Warm the owner's cache directly, then read through a non-owner.
	nodes[1].Engine.Preload(f, 0, 8, false)
	data, hit, err := readCopy(nodes[0].Engine, f, 0, 8)
	if err != nil {
		t.Fatalf("read via non-owner: %v", err)
	}
	if !hit {
		t.Error("owner had every block cached; non-owner read should report hit")
	}
	want := make([]byte, testBlockSize)
	for i := 0; i < 8; i++ {
		lapcache.FillPattern(blockdev.BlockID{File: f, Block: blockdev.BlockNo(i)}, want)
		got := data[i*testBlockSize : (i+1)*testBlockSize]
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("block %d byte %d = %#x, want %#x", i, j, got[j], want[j])
			}
		}
	}

	s0 := nodes[0].Engine.Snapshot()
	if s0.RemoteReads != 8 || s0.RemoteHits != 8 {
		t.Errorf("non-owner: RemoteReads=%d RemoteHits=%d, want 8/8", s0.RemoteReads, s0.RemoteHits)
	}
	if s0.StoreReads != 0 {
		t.Errorf("non-owner read its local store %d times; the point was not to", s0.StoreReads)
	}
	s1 := nodes[1].Engine.Snapshot()
	if s1.PeerReadsServed == 0 {
		t.Error("owner served no peer reads")
	}

	// Each block has one copy, on its owner: a re-read goes to the
	// owner again, and the non-owner still caches nothing.
	if _, hit, err := readCopy(nodes[0].Engine, f, 0, 8); err != nil || !hit {
		t.Fatalf("re-read: hit=%v err=%v, want remote hit", hit, err)
	}
	if s := nodes[0].Engine.Snapshot(); s.RemoteReads != 16 || s.CachedBlocks != 0 {
		t.Errorf("re-read: RemoteReads=%d CachedBlocks=%d, want 16/0", s.RemoteReads, s.CachedBlocks)
	}
}

// TestFrontReadSeesOwnersWrite: a front node that has read a block of a
// file owned elsewhere still sees another front's acknowledged write to
// it, because the one copy lives on the owner. The written bytes differ
// from the fill pattern, so a stale copy cannot pass for the new one.
func TestFrontReadSeesOwnersWrite(t *testing.T) {
	nodes := startCluster(t, 3, nil)
	a, b := nodes[0].Engine, nodes[1].Engine
	f := fileOwnedBy(t, nodes, 2)

	before, _, err := readCopy(a, f, 0, 1)
	if err != nil {
		t.Fatalf("front A's first read: %v", err)
	}
	data := bytes.Repeat([]byte{0xAB}, testBlockSize)
	if bytes.Equal(before, data) {
		t.Fatal("the block already holds the bytes the test writes")
	}
	if err := b.Write(f, 0, 1, data); err != nil {
		t.Fatalf("front B's write: %v", err)
	}
	after, _, err := readCopy(a, f, 0, 1)
	if err != nil {
		t.Fatalf("front A's second read: %v", err)
	}
	if !bytes.Equal(after, data) {
		t.Error("front A read stale bytes after B's acknowledged write")
	}
}

// TestClusterForwardedWrite: a non-owner's write lands on the owner,
// whose store and cache hold the file's one copy, and nothing of it is
// kept on the non-owner.
func TestClusterForwardedWrite(t *testing.T) {
	nodes := startCluster(t, 3, nil)
	f := fileOwnedBy(t, nodes, 2)

	if err := nodes[0].Engine.Write(f, 4, 3, nil); err != nil {
		t.Fatalf("forwarded write: %v", err)
	}
	s0 := nodes[0].Engine.Snapshot()
	if s0.ForwardedWrites != 1 || s0.CachedBlocks != 0 {
		t.Errorf("ForwardedWrites=%d CachedBlocks=%d, want 1/0", s0.ForwardedWrites, s0.CachedBlocks)
	}
	s2 := nodes[2].Engine.Snapshot()
	if s2.PeerWritesServed != 1 {
		t.Errorf("owner PeerWritesServed=%d, want 1", s2.PeerWritesServed)
	}
	// Owner now has the blocks in memory: a third node's read is a
	// remote hit.
	if _, hit, err := readCopy(nodes[1].Engine, f, 4, 3); err != nil || !hit {
		t.Fatalf("read-after-forwarded-write: hit=%v err=%v", hit, err)
	}
}

// TestOnePeerConnection: a node keeps exactly one connection to each
// peer, and every forward to that peer shares it — 64 concurrent
// fetches to one owner ride it together. Severing it fails the next
// forward with lapcache.ErrOwnerUnreachable, and the health loop
// redials once.
// Node 0 runs on a fake clock, so its health loops redial only when
// the test fires their timers.
func TestOnePeerConnection(t *testing.T) {
	var mu sync.Mutex
	dials := make(map[string]int)      // "i->addr": dials of that link
	links := make(map[string]net.Conn) // "i->addr": its latest socket
	clock := newFakeClock()
	nodes := startClusterWith(t, 3, nil, StartLocalOpts{TweakNode: func(i int, cfg *Config) {
		if i == 0 {
			cfg.Clock = clock
		}
		cfg.DialFunc = func(addr string) (*lapclient.Conn, error) {
			link := fmt.Sprintf("%d->%s", i, addr)
			mu.Lock()
			dials[link]++
			mu.Unlock()
			return lapclient.DialConnWith(addr, PeerWindow, func(nc net.Conn) net.Conn {
				mu.Lock()
				links[link] = nc
				mu.Unlock()
				return nc
			})
		}
	}})
	dialsOf := func(i int, addr string) int {
		mu.Lock()
		defer mu.Unlock()
		return dials[fmt.Sprintf("%d->%s", i, addr)]
	}
	for _, from := range nodes {
		for _, to := range nodes {
			if from != to {
				if got := dialsOf(from.Index, to.Addr); got != 1 {
					t.Errorf("node %d dialled node %d %d times, want 1", from.Index, to.Index, got)
				}
			}
		}
	}

	owner := nodes[1]
	f := fileOwnedBy(t, nodes, owner.Index)
	const spans = 64
	owner.Engine.Preload(f, 0, spans+2, false)
	var wg sync.WaitGroup
	for i := 0; i < spans; i++ {
		wg.Add(1)
		go func(off blockdev.BlockNo) {
			defer wg.Done()
			dsts := [][]byte{make([]byte, testBlockSize)}
			if hit, err := nodes[0].Node.FetchSpan(f, off, 1, dsts); !hit || err != nil {
				t.Errorf("fetch of block %d: hit=%v err=%v", off, hit, err)
			}
		}(blockdev.BlockNo(i))
	}
	wg.Wait()

	mu.Lock()
	links[fmt.Sprintf("0->%s", owner.Addr)].Close()
	mu.Unlock()
	before := nodes[0].Engine.Snapshot().RemoteFallbacks
	if _, _, err := readCopy(nodes[0].Engine, f, spans, 1); !errors.Is(err, lapcache.ErrOwnerUnreachable) {
		t.Fatalf("read over the severed connection: err=%v, want %v", err, lapcache.ErrOwnerUnreachable)
	}
	if got := nodes[0].Engine.Snapshot().RemoteFallbacks - before; got != 1 {
		t.Errorf("the forward over the severed connection made %d refusals, want 1", got)
	}
	if !nodes[0].Node.PeerDown(owner.Addr) {
		t.Error("owner not marked down after its connection was severed")
	}

	// One timer per health loop of node 0: the owner's redials, the
	// other peer's pings.
	for range nodes[1:] {
		clock.next(t).fire()
	}
	waitFor(t, "owner redialled", func() bool { return !nodes[0].Node.PeerDown(owner.Addr) })
	if got := dialsOf(0, owner.Addr); got != 2 {
		t.Errorf("node 0 dialled the owner %d times, want 2 (one redial)", got)
	}
	if got := dialsOf(0, nodes[2].Addr); got != 1 {
		t.Errorf("node 0 redialled the healthy peer: %d dials, want 1", got)
	}
	dsts := [][]byte{make([]byte, testBlockSize)}
	if hit, err := nodes[0].Node.FetchSpan(f, spans+1, 1, dsts); !hit || err != nil {
		t.Errorf("fetch after the redial: hit=%v err=%v", hit, err)
	}
}

// TestClusterCharismaE2E is the cluster acceptance run: a synthetic
// CHARISMA trace replayed against a live 3-node cooperative cache with
// linear aggressive prefetching on, processes sharded across nodes the
// way real clients would mount their nearest cache. It must finish,
// move real traffic across the peer tier, and keep every file's
// outstanding-prefetch high-water within the degree policy's cap
// CLUSTER-WIDE — exactly 1 under the strict linear throttle, at most
// the controller's hard K when adaptive: only the ring owner ever runs
// a file's chain, so joining the three nodes' marks per file must find
// history on one node only — the PAFS property xFS lacks.
func TestClusterCharismaE2E(t *testing.T) {
	p := experiment.TinyScale().Charisma
	tr, err := workload.GenerateCharisma(p)
	if err != nil {
		t.Fatalf("generate trace: %v", err)
	}
	for _, alg := range []core.AlgSpec{core.SpecLnAgrISPPM1, core.SpecAdAgrISPPM1} {
		t.Run(alg.Name(), func(t *testing.T) { clusterCharismaE2E(t, tr, alg) })
	}
}

func clusterCharismaE2E(t *testing.T, tr *workload.Trace, alg core.AlgSpec) {
	nodes := startCluster(t, 3, func(cfg *lapcache.Config) {
		cfg.Alg = alg
		cfg.CacheBlocks = 4096
		cfg.Workers = 8
		cfg.QueueLen = 128
		cfg.FileBlocks = tr.FileBlocks
		cfg.PoisonBufs = false // the replay is bulk traffic; keep it honest but fast
	})
	addrs := make([]string, len(nodes))
	for i, m := range nodes {
		addrs[i] = m.Addr
	}

	res, err := lapclient.ReplayTrace(addrs, tr, lapclient.ReplayOptions{})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if res.Requests != tr.TotalSteps() {
		t.Errorf("replayed %d requests, trace has %d", res.Requests, tr.TotalSteps())
	}

	// The peer tier must actually have carried traffic: with files
	// spread over three owners and processes over three mounts, both
	// sides of the forward path see work.
	var remoteReads, peerServed, fallbacks, violations uint64
	for _, m := range nodes {
		s := m.Engine.Snapshot()
		remoteReads += s.RemoteReads
		peerServed += s.PeerReadsServed
		fallbacks += s.RemoteFallbacks
		violations += uint64(s.LinearViolations)
	}
	if remoteReads == 0 {
		t.Error("replay moved no remote reads through the peer tier")
	}
	if peerServed == 0 {
		t.Error("no node served a peer read")
	}
	if fallbacks != 0 {
		t.Errorf("%d remote fallbacks with every peer alive", fallbacks)
	}
	if violations != 0 {
		t.Errorf("%d degree-cap violations across the cluster", violations)
	}

	// Cluster-wide linearity: join the per-node high-water marks. For every
	// file, only the ring owner may have driven prefetches at all, and
	// its high-water must respect the cap (and reach it exactly under
	// the strict throttle, whose cap is 1).
	degreeCap := alg.MaxOutstanding
	prefetchedFiles, maxHW := 0, 0
	for i, m := range nodes {
		for f, hw := range m.Engine.HighWaters() {
			if hw == 0 {
				continue
			}
			prefetchedFiles++
			if hw > maxHW {
				maxHW = hw
			}
			owner, _ := nodes[0].Node.OwnerOf(f)
			if owner != m.Addr {
				t.Errorf("node %d (%s) prefetched file %d owned by %s", i, m.Addr, f, owner)
			}
			if hw > degreeCap {
				t.Errorf("file %d high-water %d on node %d, cap %d cluster-wide", f, hw, i, degreeCap)
			}
			for j, other := range nodes {
				if j != i && other.Engine.HighWaters()[f] != 0 {
					t.Errorf("file %d has outstanding-prefetch history on BOTH node %d and node %d", f, i, j)
				}
			}
		}
	}
	if prefetchedFiles == 0 {
		t.Error("prefetching never engaged anywhere in the cluster")
	}
	t.Logf("replay: %d reqs in %v across 3 nodes; %d remote reads, %d peer reads served, %d files prefetched (max HW %d, cap %d)",
		res.Requests, res.Elapsed, remoteReads, peerServed, prefetchedFiles, maxHW, degreeCap)
}
