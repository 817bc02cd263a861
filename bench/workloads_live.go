package main

import (
	"net"
	"time"

	"repro/internal/blockdev"
	"repro/internal/cluster"
	"repro/internal/lapcache"
	"repro/internal/lapclient"
)

// storeLatency is lapcached's default injected disk latency. Sleeps
// below about a millisecond are not honoured on a shared box, which
// is why nothing here is tuned around a sub-millisecond "disk".
const storeLatency = 2 * time.Millisecond

// serveEngine boots one engine behind one server on a loopback port.
func serveEngine(cfg lapcache.Config, acceptShards int) (*lapcache.Engine, string, func(), error) {
	eng, err := lapcache.New(cfg)
	if err != nil {
		return nil, "", nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		eng.Shutdown()
		return nil, "", nil, err
	}
	srv := lapcache.NewServer(eng)
	srv.Shards = acceptShards
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln) //nolint:errcheck // returns when Close is called
	}()
	stop := func() {
		srv.Close()
		<-done
	}
	return eng, ln.Addr().String(), stop, nil
}

// sequentialIDs numbers n files from 1 (file 0's first block is all
// zero bytes, which the read check uses as its "untouched" mark).
func sequentialIDs(n int) []blockdev.FileID {
	ids := make([]blockdev.FileID, n)
	for i := range ids {
		ids[i] = blockdev.FileID(i + 1)
	}
	return ids
}

func fileTable(ids []blockdev.FileID, blocks int32) map[blockdev.FileID]blockdev.BlockNo {
	t := make(map[blockdev.FileID]blockdev.BlockNo, len(ids))
	for _, id := range ids {
		t[id] = blockdev.BlockNo(blocks)
	}
	return t
}

// dial opens n binary connections to addr.
func dial(addr string, n, window int) ([]*lapclient.Conn, error) {
	var conns []*lapclient.Conn
	for i := 0; i < n; i++ {
		c, err := lapclient.DialConn(addr, window)
		if err != nil {
			for _, c := range conns {
				c.Close() //nolint:errcheck // already failing
			}
			return nil, err
		}
		conns = append(conns, c)
	}
	return conns, nil
}

// hit_fanin: everything is in memory, so the store does nothing and
// wire, client, server dispatch, cache shards and block buffers do all
// the work; the predictor and driver still run on every hit. Sixteen
// requests are in flight at any time: with eight, both processors fell
// idle between requests often enough for what a virtual processor's
// wake-up costs on this host to show in every number (run-to-run spread
// of ops_per_s 7-8 % with eight readers, 2 % with sixteen).
const (
	fanFiles         = 16
	fanBlocks        = 1024
	fanConns         = 2
	fanReadersPerCon = 8
	fanWarmupReads   = 100_000
)

func setupHitFanin(seed uint64) (*liveEnv, []*reader, error) {
	ids := sequentialIDs(fanFiles)
	eng, addr, stop, err := serveEngine(lapcache.Config{
		Alg:         liveAlg,
		BlockSize:   blockSize,
		CacheBlocks: 2 * fanFiles * fanBlocks,
		Shards:      2,
		Store:       lapcache.NewMemStore(blockSize, storeLatency),
		// Without the file table the chains run past end of file and the
		// prefetcher evicts the hot set.
		FileBlocks: fileTable(ids, fanBlocks),
	}, 2)
	if err != nil {
		return nil, nil, err
	}
	env := &liveEnv{engines: []*lapcache.Engine{eng}, fileID: ids, stop: stop}
	for _, id := range ids {
		eng.Preload(id, 0, fanBlocks, false)
	}
	if env.conns, err = dial(addr, fanConns, 2*fanReadersPerCon); err != nil {
		env.teardown() //nolint:errcheck // already failing
		return nil, nil, err
	}
	srcs := newScanSources(seed, fanConns*fanReadersPerCon, fanFiles, fanBlocks)
	var readers []*reader
	for g, src := range srcs {
		readers = append(readers, newReader(env.conns[g/fanReadersPerCon], src, 0, ids))
	}
	runRound(readers, 0, fanWarmupReads/int64(len(readers)), &latBufs{})
	return env, readers, nil
}

// seq_prefetch: the paper's mechanism end to end. The data is eight
// times the cache, the store takes 2 ms and each client thinks 3 ms
// between reads, so a read is fast only if the prefetcher fetched it
// during the think time.
const (
	seqFiles        = 8
	seqBlocks       = 16384
	seqCacheBlocks  = 4096
	seqClients      = 2
	seqThink        = 3 * time.Millisecond
	seqFillerFile   = 1000 // never read; fills the cache before the run
	seqTrainSeqLen  = 48
	seqTrainStrided = 12
)

// trainingSource is seq_prefetch's warm-up: one sequential run and one
// run of every stride on each of the client's files, so that no file's
// predictor meets a pattern for the first time in a measured round.
func trainingOps(seed uint64, client int, files []int32) []op {
	r := newRNG(seed, 4, uint64(client))
	var ops []op
	for _, f := range files {
		for stride := 1; stride <= strideHi; stride++ {
			n := seqTrainStrided
			if stride == 1 {
				n = seqTrainSeqLen
			}
			start := r.intn(seqBlocks - stride*(n-1))
			for k := 0; k < n; k++ {
				ops = append(ops, op{file: f, block: int32(start + k*stride), kind: opRead})
			}
			ops = append(ops, op{file: f, kind: opClose})
		}
	}
	return ops
}

// sliceSource replays a fixed list of operations once.
type sliceSource struct {
	ops []op
	pos int
}

func (s *sliceSource) next() op {
	o := s.ops[s.pos]
	s.pos++
	return o
}

func countReadsWrites(ops []op) (n int64) {
	for _, o := range ops {
		if o.kind != opClose {
			n++
		}
	}
	return n
}

// seqOwnFiles lists the files only client c reads.
func seqOwnFiles(c int) []int32 {
	per := seqFiles / seqClients
	own := make([]int32, per)
	for i := range own {
		own[i] = int32(c*per + i)
	}
	return own
}

func setupSeqPrefetch(seed uint64) (*liveEnv, []*reader, error) {
	ids := sequentialIDs(seqFiles)
	table := fileTable(ids, seqBlocks)
	table[seqFillerFile] = seqCacheBlocks
	eng, addr, stop, err := serveEngine(lapcache.Config{
		Alg:         liveAlg,
		BlockSize:   blockSize,
		CacheBlocks: seqCacheBlocks,
		Store:       lapcache.NewMemStore(blockSize, storeLatency),
		FileBlocks:  table,
	}, 1)
	if err != nil {
		return nil, nil, err
	}
	env := &liveEnv{engines: []*lapcache.Engine{eng}, fileID: ids, stop: stop}
	// A full cache from the first read on: evictions, and with them the
	// wasted-prefetch count, behave as in steady state.
	eng.Preload(seqFillerFile, 0, seqCacheBlocks, false)
	if env.conns, err = dial(addr, seqClients, 1); err != nil {
		env.teardown() //nolint:errcheck // already failing
		return nil, nil, err
	}
	var readers []*reader
	for c := 0; c < seqClients; c++ {
		own := seqOwnFiles(c)
		// Warm-up runs without think time: it is store-bound, fixed in
		// count, and leaves every file's predictor trained.
		train := trainingOps(seed, c, own)
		r := newReader(env.conns[c], &sliceSource{ops: train}, 0, ids)
		runRound([]*reader{r}, 0, countReadsWrites(train), &latBufs{})
		r.src, r.think = newSegSource(seed, c, own, seqBlocks), seqThink
		readers = append(readers, r)
	}
	return env, readers, nil
}

// coop_mixed: the same engine and wire used as a cooperative cache.
const (
	coopNodes = 3
	// All clients talk to the front node, one connection each. Eight
	// keep both processors busy; with two, every request waited for
	// three goroutines to be woken one after the other on idle
	// processors, and ops_per_s spread by 12 % from run to run, not 3 %.
	coopClients = 8
	coopFront   = 0 // the node the clients talk to; it owns no file
	// The front node's cache holds next to nothing, so a block is never
	// found there twice and every read is served by its owner's memory.
	coopFrontCacheBlocks = 64
	coopFiles            = 96
	coopBlocks           = 512
	coopCacheBlocks      = 40000
	coopZipf             = 1.1
	coopWriteShare       = 0.2
	coopWarmupOps        = 60_000
)

// pinFiles chooses one file ID per entry of want such that file i is
// owned by member want[i], whatever the ring looks like. The ring
// hashes the nodes' ephemeral listen addresses, so a fixed set of IDs
// would be split between the nodes differently on every run.
func pinFiles(ownerOf func(blockdev.FileID) string, want []string) []blockdev.FileID {
	ids := make([]blockdev.FileID, len(want))
	left := len(want)
	for id := blockdev.FileID(1); left > 0; id++ {
		owner := ownerOf(id)
		for i, w := range want {
			if w == owner && ids[i] == 0 {
				ids[i] = id
				left--
				break
			}
		}
	}
	return ids
}

// coopOwnerOf says which owner node holds file i: each client's files
// (every second index) alternate between the owners.
func coopOwnerOf(i int, owners []string) string { return owners[i/coopClients%len(owners)] }

// newCoopSource is client c's stream: Zipf over its own files, which
// are every coopClients-th file. Two clients interleaving on one file
// would feed its predictor an endless supply of new intervals; the
// per-file pattern graph then fills to its cap and every request pays
// a scan of it, a cost that grows for minutes (README, "What the
// prototype taught").
func newCoopSource(seed uint64, c int) *zipfSource {
	var files []int32
	for i := c; i < coopFiles; i += coopClients {
		files = append(files, int32(i))
	}
	return newZipfSource(seed, c, files, zipfCDF(len(files), coopZipf), coopBlocks, coopWriteShare)
}

func setupCoopMixed(seed uint64) (*liveEnv, []*reader, error) {
	nodes, stop, err := cluster.StartLocal(coopNodes, func(i int, _ []string) lapcache.Config {
		cfg := lapcache.Config{
			Alg:         liveAlg,
			BlockSize:   blockSize,
			CacheBlocks: coopCacheBlocks,
			Store:       lapcache.NewMemStore(blockSize, storeLatency),
		}
		if i == coopFront {
			cfg.CacheBlocks = coopFrontCacheBlocks
		}
		return cfg
	})
	if err != nil {
		return nil, nil, err
	}
	env := &liveEnv{stop: stop}
	var owners []string
	for i, n := range nodes {
		env.engines = append(env.engines, n.Engine)
		if i != coopFront {
			owners = append(owners, n.Addr)
		}
	}
	want := make([]string, coopFiles)
	for i := range want {
		want[i] = coopOwnerOf(i, owners)
	}
	env.fileID = pinFiles(func(f blockdev.FileID) string {
		addr, _ := nodes[coopFront].Node.OwnerOf(f)
		return addr
	}, want)
	table := fileTable(env.fileID, coopBlocks)
	for _, n := range nodes {
		n.Engine.RegisterFiles(table)
	}
	for i, id := range env.fileID {
		for _, n := range nodes {
			if n.Addr == want[i] {
				n.Engine.Preload(id, 0, coopBlocks, false)
			}
		}
	}
	if env.conns, err = dial(nodes[coopFront].Addr, coopClients, 1); err != nil {
		env.teardown() //nolint:errcheck // already failing
		return nil, nil, err
	}
	var readers []*reader
	for c, conn := range env.conns {
		readers = append(readers, newReader(conn, newCoopSource(seed, c), 0, env.fileID))
	}
	runRound(readers, 0, coopWarmupOps/int64(len(readers)), &latBufs{})
	return env, readers, nil
}

var liveWorkloads = []liveWorkload{
	{
		name: "hit_fanin", setup: setupHitFanin, rounds: shortRounds, cpuBound: true, allCached: true,
		ladder: func(seed uint64) ladder {
			src := newScanSources(seed, fanConns*fanReadersPerCon, fanFiles, fanBlocks)[0]
			return ladder{ops: take(src, ladderOps), nFiles: fanFiles, blocks: fanBlocks}
		},
	},
	{
		name: "seq_prefetch", setup: setupSeqPrefetch, rounds: 2,
		ladder: func(seed uint64) ladder {
			src := newSegSource(seed, 0, seqOwnFiles(0), seqBlocks)
			return ladder{ops: take(src, ladderOps), nFiles: seqFiles, blocks: seqBlocks}
		},
	},
	{
		name: "coop_mixed", setup: setupCoopMixed, rounds: shortRounds, cpuBound: true, allCached: true,
		ladder: func(seed uint64) ladder {
			src := newCoopSource(seed, 0)
			return ladder{ops: take(src, ladderOps), nFiles: coopFiles, blocks: coopBlocks}
		},
	},
}
