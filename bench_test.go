// Benchmarks regenerating the paper's evaluation. One benchmark per
// table and figure re-runs the underlying simulation sweep and reports
// the series the paper plots via b.ReportMetric; the Ablation
// benchmarks exercise the design choices DESIGN.md calls out.
//
// The benches run at the small scale so `go test -bench=. -benchmem`
// completes in minutes; EXPERIMENTS.md records a full-scale run made
// with cmd/lapbench.
package repro_test

import (
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/blockbuf"
	"repro/internal/blockdev"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/lapcache"
	"repro/internal/lapclient"
	"repro/internal/wire"
)

// benchScale is shared by every benchmark in this file.
func benchScale() experiment.Scale { return experiment.SmallScale() }

// runFigure regenerates one paper artifact per iteration and reports
// each (algorithm, cache size) point as a benchmark metric.
func runFigure(b *testing.B, id string) {
	b.Helper()
	s := benchScale()
	var fig experiment.Figure
	for i := 0; i < b.N; i++ {
		suite := experiment.NewSuite(s, 0)
		var err error
		fig, err = suite.Figure(id)
		if err != nil {
			b.Fatal(err)
		}
	}
	unit := "ms"
	if fig.Unit != "ms" {
		unit = fig.Unit
	}
	for _, series := range fig.Series {
		for i, mb := range fig.Sizes {
			b.ReportMetric(series.Values[i], fmt.Sprintf("%s@%dMB_%s", series.Alg, mb, unit))
		}
	}
}

// BenchmarkTable1 formats the simulation-parameter table (trivially
// cheap; present so every paper artifact has a bench target).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiment.Table1() == "" {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFig4 regenerates Figure 4: average read time, CHARISMA on
// PAFS.
func BenchmarkFig4(b *testing.B) { runFigure(b, "fig4") }

// BenchmarkFig5 regenerates Figure 5: average read time, CHARISMA on
// xFS.
func BenchmarkFig5(b *testing.B) { runFigure(b, "fig5") }

// BenchmarkFig6 regenerates Figure 6: average read time, Sprite on
// PAFS.
func BenchmarkFig6(b *testing.B) { runFigure(b, "fig6") }

// BenchmarkFig7 regenerates Figure 7: average read time, Sprite on
// xFS.
func BenchmarkFig7(b *testing.B) { runFigure(b, "fig7") }

// BenchmarkFig8 regenerates Figure 8: disk accesses, CHARISMA on PAFS.
func BenchmarkFig8(b *testing.B) { runFigure(b, "fig8") }

// BenchmarkFig9 regenerates Figure 9: disk accesses, CHARISMA on xFS.
func BenchmarkFig9(b *testing.B) { runFigure(b, "fig9") }

// BenchmarkFig10 regenerates Figure 10: disk accesses, Sprite on PAFS.
func BenchmarkFig10(b *testing.B) { runFigure(b, "fig10") }

// BenchmarkFig11 regenerates Figure 11: disk accesses, Sprite on xFS.
func BenchmarkFig11(b *testing.B) { runFigure(b, "fig11") }

// BenchmarkTable2 regenerates Table 2: per-block disk write counts,
// CHARISMA on PAFS.
func BenchmarkTable2(b *testing.B) { runFigure(b, "table2") }

// runAblationCell measures one algorithm variant on CHARISMA/PAFS at
// 4 MB per node and reports its average read time and misprediction.
// Ablations run at the tiny scale: the unthrottled variant's cache
// churn — the very behaviour the paper's linear limit exists to
// prevent — makes it orders of magnitude more work at larger scales.
func runAblationCell(b *testing.B, alg core.AlgSpec) {
	b.Helper()
	s := experiment.TinyScale()
	var r experiment.Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiment.RunCell(s, experiment.Cell{
			FS: experiment.PAFS, Workload: experiment.Charisma, Alg: alg, CacheMB: 4,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.AvgReadMs, "read_ms")
	b.ReportMetric(100*r.MispredictionRatio, "mispredict_%")
	b.ReportMetric(float64(r.DiskAccesses), "disk_accesses")
}

// BenchmarkAblationLinearity compares the paper's one-outstanding
// throttle against a K=4 window and fully unthrottled aggression.
func BenchmarkAblationLinearity(b *testing.B) {
	for _, c := range []struct {
		name string
		out  int
	}{{"linear1", 1}, {"window4", 4}, {"unlimited", 0}} {
		b.Run(c.name, func(b *testing.B) {
			runAblationCell(b, core.AlgSpec{
				Kind: core.AlgISPPM, Order: 1,
				Mode: core.ModeAggressive, MaxOutstanding: c.out,
			})
		})
	}
}

// BenchmarkAblationLinkPolicy compares the paper's most-recent link
// rule against the original PPM most-probable rule.
func BenchmarkAblationLinkPolicy(b *testing.B) {
	for _, c := range []struct {
		name string
		prob bool
	}{{"mostRecent", false}, {"mostProbable", true}} {
		b.Run(c.name, func(b *testing.B) {
			spec := core.SpecLnAgrISPPM1
			spec.MostProbableLinks = c.prob
			runAblationCell(b, spec)
		})
	}
}

// BenchmarkAblationOrder sweeps the Markov order of the aggressive
// IS_PPM predictor.
func BenchmarkAblationOrder(b *testing.B) {
	for order := 1; order <= 4; order++ {
		b.Run(fmt.Sprintf("order%d", order), func(b *testing.B) {
			runAblationCell(b, core.AlgSpec{
				Kind: core.AlgISPPM, Order: order,
				Mode: core.ModeAggressive, MaxOutstanding: 1,
			})
		})
	}
}

// BenchmarkAblationPriority compares prefetching at the paper's
// strictly-lower disk priority against user priority.
func BenchmarkAblationPriority(b *testing.B) {
	for _, c := range []struct {
		name  string
		uprio bool
	}{{"lowPriority", false}, {"userPriority", true}} {
		b.Run(c.name, func(b *testing.B) {
			spec := core.SpecLnAgrISPPM1
			spec.UserPriorityPrefetch = c.uprio
			runAblationCell(b, spec)
		})
	}
}

// BenchmarkAblationFallback compares IS_PPM with and without the
// cold-start OBA fallback.
func BenchmarkAblationFallback(b *testing.B) {
	for _, c := range []struct {
		name string
		nofb bool
	}{{"withFallback", false}, {"noFallback", true}} {
		b.Run(c.name, func(b *testing.B) {
			spec := core.SpecLnAgrISPPM1
			spec.NoFallback = c.nofb
			runAblationCell(b, spec)
		})
	}
}

// newBenchEngine builds a lapcache engine for the runtime benchmarks:
// zero-latency in-memory store, no prefetching, so the measured cost is
// the cache path itself.
func newBenchEngine(b *testing.B, cacheBlocks int) *lapcache.Engine {
	b.Helper()
	const blockSize = 8192
	e, err := lapcache.New(lapcache.Config{
		Alg:         core.SpecNP,
		BlockSize:   blockSize,
		CacheBlocks: cacheBlocks,
		Store:       lapcache.NewMemStore(blockSize, 0),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(e.Shutdown)
	return e
}

// BenchmarkLapcacheGet measures the runtime engine's three demand-read
// paths: a plain cache hit, a miss through the backing store, and the
// first touch of a prefetched block (hit + timely classification).
// The hit paths go through ReadInto — the zero-copy API the server
// uses — and with the refcounted buffer pool they run at 0 allocs/op.
// BENCH_wire.json records a reference run (make bench).
func BenchmarkLapcacheGet(b *testing.B) {
	b.Run("hit", func(b *testing.B) {
		e := newBenchEngine(b, 64)
		e.Preload(1, 0, 1, false)
		var (
			bufs []*blockbuf.Buf
			hit  bool
			err  error
		)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			bufs, hit, err = e.ReadInto(bufs[:0], 1, 0, 1)
			if err != nil || !hit {
				b.Fatalf("hit=%v err=%v", hit, err)
			}
			bufs[0].Release()
		}
	})
	b.Run("miss", func(b *testing.B) {
		// A 1-block cache and a striding scan: every read misses and
		// goes to the (zero-latency) store.
		e := newBenchEngine(b, 1)
		var (
			bufs []*blockbuf.Buf
			hit  bool
			err  error
		)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			off := blockdev.BlockNo(i % (1 << 18))
			bufs, hit, err = e.ReadInto(bufs[:0], 1, off, 1)
			if err != nil || hit {
				b.Fatalf("hit=%v err=%v", hit, err)
			}
			bufs[0].Release()
		}
	})
	b.Run("prefetchedHit", func(b *testing.B) {
		// Blocks are staged with the speculative flag armed, in batches
		// outside the timer; each read is then a first touch of a
		// prefetched block — the timely path.
		const batch = 4096
		e := newBenchEngine(b, 2*batch) // headroom: shard hashing is not perfectly even
		var (
			bufs []*blockbuf.Buf
			hit  bool
			err  error
		)
		i := 0
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			if i == 0 {
				b.StopTimer()
				e.Preload(1, 0, batch, true)
				b.StartTimer()
			}
			bufs, hit, err = e.ReadInto(bufs[:0], 1, blockdev.BlockNo(i), 1)
			if err != nil || !hit {
				b.Fatalf("hit=%v err=%v", hit, err)
			}
			bufs[0].Release()
			i = (i + 1) % batch
		}
	})
}

// startBenchServer exposes a hot single-block engine over loopback TCP
// for the wire benchmarks.
func startBenchServer(b *testing.B) string {
	b.Helper()
	e := newBenchEngine(b, 64)
	e.Preload(1, 0, 1, false) // every read below is a cache hit
	srv := lapcache.NewServer(e)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(ln)
	b.Cleanup(srv.Close)
	return ln.Addr().String()
}

// readData fetches one block with its payload over a Conn or a Pool.
func readData(x lapclient.Exchanger, f blockdev.FileID, off blockdev.BlockNo) (data []byte, hit bool, err error) {
	rh, data, err := x.Do(lapclient.Req(wire.OpRead, wire.FlagWantData, f, off, 1), nil, nil)
	return data, rh.Flags&wire.FlagHit != 0, err
}

// BenchmarkWireRoundTrip measures the wire end to end over loopback
// TCP: an 8 KiB cached block fetched with data per round trip,
// streamed out of the refcounted cache buffer. binary is one
// connection, one request in flight; binaryPipelined keeps a window of
// requests in flight on pooled connections — the configuration -replay
// uses. BENCH_wire.json records a reference run (make bench).
func BenchmarkWireRoundTrip(b *testing.B) {
	const blockSize = 8192
	b.Run("binary", func(b *testing.B) {
		addr := startBenchServer(b)
		c, err := lapclient.DialConn(addr, 1)
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		b.SetBytes(blockSize)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			data, hit, err := readData(c, 1, 0)
			if err != nil || !hit || len(data) != blockSize {
				b.Fatalf("hit=%v len=%d err=%v", hit, len(data), err)
			}
		}
	})
	b.Run("binaryPipelined", func(b *testing.B) {
		addr := startBenchServer(b)
		p, err := lapclient.DialPool(addr, 2, 0)
		if err != nil {
			b.Fatal(err)
		}
		defer p.Close()
		b.SetBytes(blockSize)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				data, hit, err := readData(p, 1, 0)
				if err != nil || !hit || len(data) != blockSize {
					b.Fatalf("hit=%v len=%d err=%v", hit, len(data), err)
				}
			}
		})
	})
}

// BenchmarkClusterRead measures the cooperative tier's value
// proposition end to end over loopback TCP, one 8 KiB block with data
// per read: localHit is a block in this node's own cache (the floor);
// remoteHit is a block missing locally but resident in the ring
// owner's memory — the request crosses to the owner and back, two
// wire hops; localDisk is the same miss with no peer tier, served by
// a backing store with a disk-like 2 ms access time. The paper's
// premise is the gap between the last two: a peer's memory is an
// order of magnitude closer than the disk. BENCH_cluster.json records
// a reference run (make bench).
func BenchmarkClusterRead(b *testing.B) {
	const blockSize = 8192
	b.Run("localHit", func(b *testing.B) {
		addr := startBenchServer(b)
		c, err := lapclient.DialConn(addr, 1)
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		dsts := [][]byte{make([]byte, blockSize)}
		b.SetBytes(blockSize)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			hit, err := c.ReadInto(1, 0, 1, dsts)
			if err != nil || !hit {
				b.Fatalf("hit=%v err=%v", hit, err)
			}
		}
	})
	b.Run("remoteHit", func(b *testing.B) {
		// Node 0 gets a near-zero cache so every read misses locally
		// and forwards; its peers hold the working set in memory.
		const hot = 4096
		nodes, stop, err := cluster.StartLocal(3, func(i int, addrs []string) lapcache.Config {
			cacheBlocks := 2 * hot
			if i == 0 {
				cacheBlocks = 4
			}
			return lapcache.Config{
				Alg:         core.SpecNP,
				BlockSize:   blockSize,
				CacheBlocks: cacheBlocks,
				Store:       lapcache.NewMemStore(blockSize, 0),
			}
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(stop)
		var f blockdev.FileID
		for f = 1; ; f++ {
			if addr, self := nodes[0].Node.OwnerOf(f); !self && addr != "" {
				break
			}
		}
		owner, _ := nodes[0].Node.OwnerOf(f)
		for _, m := range nodes {
			if m.Addr == owner {
				m.Engine.Preload(f, 0, hot, false)
			}
		}
		c, err := lapclient.DialConn(nodes[0].Addr, 1)
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		dsts := [][]byte{make([]byte, blockSize)}
		b.SetBytes(blockSize)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			hit, err := c.ReadInto(f, blockdev.BlockNo(i%hot), 1, dsts)
			if err != nil || !hit {
				b.Fatalf("hit=%v err=%v", hit, err)
			}
		}
		b.StopTimer()
		if s := nodes[0].Engine.Snapshot(); s.StoreReads != 0 {
			b.Fatalf("remoteHit read the local store %d times", s.StoreReads)
		}
	})
	b.Run("localDisk", func(b *testing.B) {
		// The same miss stream with no peer tier: a 2 ms store access
		// per read, the simulator's disk constant.
		e, err := lapcache.New(lapcache.Config{
			Alg:         core.SpecNP,
			BlockSize:   blockSize,
			CacheBlocks: 4,
			Store:       lapcache.NewMemStore(blockSize, 2*time.Millisecond),
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(e.Shutdown)
		srv := lapcache.NewServer(e)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		go srv.Serve(ln)
		b.Cleanup(srv.Close)
		c, err := lapclient.DialConn(ln.Addr().String(), 1)
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		b.SetBytes(blockSize)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			data, hit, err := readData(c, 1, blockdev.BlockNo(i%(1<<18)))
			if err != nil || hit || len(data) != blockSize {
				b.Fatalf("hit=%v len=%d err=%v", hit, len(data), err)
			}
		}
	})
}

// bootChurnBench boots a 3-node dynamic-membership cluster with the
// given replica count, handoff budget and a disk-like 2 ms store,
// writes hot blocks of one file, kills the file's ring owner, and
// waits for the survivors to convict it and move the ring. It returns
// the survivors' view: the file, a connection to a survivor, the node
// list, and the killed node's index.
func bootChurnBench(b *testing.B, replicas, hot int, bps int64) (blockdev.FileID, *lapclient.Conn, []*cluster.LocalNode, int) {
	b.Helper()
	const blockSize = 8192
	nodes, stop, err := cluster.StartLocalWith(3,
		func(i int, addrs []string) lapcache.Config {
			return lapcache.Config{
				Alg:         core.SpecNP,
				BlockSize:   blockSize,
				CacheBlocks: 4 * hot,
				Store:       lapcache.NewMemStore(blockSize, 2*time.Millisecond),
			}
		},
		cluster.StartLocalOpts{TweakNode: func(i int, cfg *cluster.Config) {
			cfg.Dynamic = true
			for _, a := range cfg.Peers {
				if a != cfg.Self {
					cfg.Join = append(cfg.Join, a)
				}
			}
			cfg.Replicas = replicas
			cfg.GossipInterval = 20 * time.Millisecond
			cfg.SuspicionTimeout = 300 * time.Millisecond
			cfg.HandoffBps = bps
			cfg.PeerCallTimeout = time.Second
		}})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(stop)

	const f = blockdev.FileID(1)
	victim := -1
	for i, m := range nodes {
		if m.Node.Owned(f) {
			victim = i
		}
	}
	survivor := (victim + 1) % 3
	c, err := lapclient.DialConn(nodes[survivor].Addr, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	for off := 0; off < hot; off += 8 {
		if err := c.Write(f, blockdev.BlockNo(off), 8, nil); err != nil {
			b.Fatal(err)
		}
	}

	nodes[victim].Kill()
	deadline := time.Now().Add(10 * time.Second)
	for {
		ok := true
		for i, m := range nodes {
			if i != victim && len(m.Node.MemberAddrs()) != 2 {
				ok = false
			}
		}
		if ok {
			break
		}
		if time.Now().After(deadline) {
			b.Fatal("survivors never convicted the killed owner")
		}
		time.Sleep(20 * time.Millisecond)
	}
	return f, c, nodes, victim
}

// BenchmarkMembership measures what dynamic membership buys and costs.
// replicaHit reads blocks whose ring owner is dead with R=2: the moved
// arc lands on the successor already holding the replica in memory.
// diskDegrade is the same owner death with R=1: the new owner has
// nothing and pays the 2 ms store access per span — the latency cliff
// replication removes. handoff measures the bounded-rate rebalancer
// re-homing cached blocks after a ring move, in blocks-moved/s: with
// a 1 MiB/s budget and 8 KiB blocks the measured rate must sit near
// (and never above) 128. BENCH_membership.json records a reference
// run (make bench).
func BenchmarkMembership(b *testing.B) {
	const blockSize = 8192
	const hot = 256
	b.Run("replicaHit", func(b *testing.B) {
		f, c, _, _ := bootChurnBench(b, 2, hot, 8<<20)
		b.SetBytes(blockSize)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			data, hit, err := readData(c, f, blockdev.BlockNo(i%hot))
			if err != nil || !hit || len(data) != blockSize {
				b.Fatalf("hit=%v len=%d err=%v", hit, len(data), err)
			}
		}
	})
	b.Run("diskDegrade", func(b *testing.B) {
		f, c, _, _ := bootChurnBench(b, 1, hot, 8<<20)
		b.SetBytes(blockSize)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Read far past the written range so every access misses the
			// new owner's memory: with R=1 the dead owner's blocks are
			// simply gone, and the store's 2 ms access is the price.
			data, _, err := readData(c, f, blockdev.BlockNo(hot+i))
			if err != nil || len(data) != blockSize {
				b.Fatalf("len=%d err=%v", len(data), err)
			}
		}
	})
	b.Run("handoff", func(b *testing.B) {
		const bps = 1 << 20 // 128 blocks/s at 8 KiB
		var blocks uint64
		var busy time.Duration
		for i := 0; i < b.N; i++ {
			_, _, nodes, victim := bootChurnBench(b, 1, hot, bps)
			s1 := (victim + 1) % 3
			// During the dead window, load the survivor's cache with
			// blocks of files the 2-member ring assigns elsewhere. The
			// rejoin's ring move can only shift arcs toward the returning
			// node, so every one of these blocks stays foreign to s1 and
			// the post-rejoin sweep must push all of them out under the
			// byte budget.
			seeded := 0
			for f := blockdev.FileID(2); seeded < hot/8; f++ {
				if nodes[s1].Node.Owned(f) {
					continue
				}
				nodes[s1].Engine.Preload(f, 0, 8, false)
				seeded++
			}
			start := time.Now()
			moved := movedBlocks(nodes)
			if err := nodes[victim].Restart(10 * time.Second); err != nil {
				b.Fatal(err)
			}
			waitRingSize(b, nodes, 3)
			// Quiescence: the rebalancer has stopped moving blocks.
			last, lastChange := movedBlocks(nodes), time.Now()
			for time.Since(lastChange) < 500*time.Millisecond {
				time.Sleep(50 * time.Millisecond)
				if cur := movedBlocks(nodes); cur != last {
					last, lastChange = cur, time.Now()
				}
			}
			if last == moved {
				b.Fatal("rejoin moved no handoff blocks")
			}
			blocks += last - moved
			busy += lastChange.Sub(start)
		}
		if busy > 0 {
			b.ReportMetric(float64(blocks)/busy.Seconds(), "blocks-moved/s")
		}
	})
}

// movedBlocks sums handoff block counters across live nodes.
func movedBlocks(nodes []*cluster.LocalNode) uint64 {
	var n uint64
	for _, m := range nodes {
		n += m.Node.HandoffStats().BlocksMoved
	}
	return n
}

// waitRingSize polls until every node's ring has want members.
func waitRingSize(b *testing.B, nodes []*cluster.LocalNode, want int) {
	b.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		ok := true
		for _, m := range nodes {
			if len(m.Node.MemberAddrs()) != want {
				ok = false
			}
		}
		if ok {
			return
		}
		if time.Now().After(deadline) {
			b.Fatalf("rings never converged to %d members", want)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// BenchmarkAblationNChance sweeps xFS's N-chance recirculation count
// on the Sprite workload: -1 disables singlet forwarding entirely
// (every node for itself), showing what cooperation buys.
func BenchmarkAblationNChance(b *testing.B) {
	for _, c := range []struct {
		name   string
		recirc int
	}{{"noForwarding", -1}, {"nChance1", 1}, {"nChance2", 2}, {"nChance4", 4}} {
		b.Run(c.name, func(b *testing.B) {
			s := experiment.TinyScale()
			var r experiment.Result
			for i := 0; i < b.N; i++ {
				var err error
				r, err = experiment.RunCell(s, experiment.Cell{
					FS: experiment.XFS, Workload: experiment.Sprite,
					Alg: core.SpecLnAgrISPPM1, CacheMB: 1,
					Recirculations: c.recirc,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(r.AvgReadMs, "read_ms")
			b.ReportMetric(float64(r.DiskAccesses), "disk_accesses")
		})
	}
}

// BenchmarkAblationIntervalVsBlock compares the paper's interval-and-
// size modelling against the original block-granularity PPM it evolved
// from (§2.2): same driver, same order, different state.
func BenchmarkAblationIntervalVsBlock(b *testing.B) {
	for _, c := range []struct {
		name string
		kind core.AlgKind
	}{{"isppm", core.AlgISPPM}, {"blockppm", core.AlgBlockPPM}} {
		b.Run(c.name, func(b *testing.B) {
			runAblationCell(b, core.AlgSpec{
				Kind: c.kind, Order: 1,
				Mode: core.ModeAggressive, MaxOutstanding: 1,
			})
		})
	}
}
