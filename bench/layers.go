package main

import (
	"fmt"
	"io"
	"net"
	"slices"
	"time"

	"repro/internal/blockbuf"
	"repro/internal/blockdev"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/lapcache"
	"repro/internal/lapclient"
	"repro/internal/wire"
)

// ladderOps is how many operations of the workload's first client the
// traced run replays at each tier.
const ladderOps = 20_000

// ladder is a live workload's replay input: the first operations of
// its first client and the files they touch.
type ladder struct {
	ops    []op
	nFiles int
	blocks int32
}

// sink keeps the micro-timing loops' results alive.
var sink uint64

// perOp times n calls of f and returns nanoseconds per call.
func perOp(n int, f func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// request is one (file, offset, size) request of a stream, the form
// the predictors see.
type request struct {
	file blockdev.FileID
	req  core.Request
}

func requestsOf(ops []op) []request {
	var out []request
	for _, o := range ops {
		if o.kind != opClose {
			out = append(out, request{blockdev.FileID(o.file), core.Request{Offset: blockdev.BlockNo(o.block), Size: 1}})
		}
	}
	return out
}

// stubEnv hosts a driver outside any engine: every block is cached or
// none is, and the prefetches accepted during one request complete
// before the next (the ones those completions launch stay in flight,
// or a linear chain would run to the end of the file in one step).
type stubEnv struct {
	cached bool
	done   []func()
}

func (e *stubEnv) Cached(blockdev.BlockID) bool { return e.cached }

func (e *stubEnv) Prefetch(_ blockdev.BlockID, _ bool, _ func() bool, done func()) bool {
	e.done = append(e.done, done)
	return true
}

// coreMicro times the predictor and the driver on a request stream:
// IS_PPM:3 Observe+Predict per request, and a whole Driver.OnUserRequest
// step against a stub environment (allCached says which way the
// workload's cache answers).
func coreMicro(reqs []request, allCached bool, m values) {
	const passes = 5
	preds := map[blockdev.FileID]core.Predictor{}
	var tick core.Tick
	m["core.observe_ns"] = perOp(passes*len(reqs), func(i int) {
		r := reqs[i%len(reqs)]
		p := preds[r.file]
		if p == nil {
			p = liveAlg.NewPredictor()
			preds[r.file] = p
		}
		tick++
		_, _, ok := p.Predict(p.Observe(r.req, tick))
		if ok {
			sink++
		}
	})

	type hosted struct {
		d   *core.Driver
		env *stubEnv
	}
	drivers := map[blockdev.FileID]hosted{}
	tick = 0
	m["core.driver_step_ns"] = perOp(passes*len(reqs), func(i int) {
		r := reqs[i%len(reqs)]
		h, ok := drivers[r.file]
		if !ok {
			h.env = &stubEnv{cached: allCached}
			h.d = core.NewDriver(core.DriverConfig{
				Predictor:  liveAlg.NewPredictor(),
				Mode:       liveAlg.Mode,
				Degree:     liveAlg.NewDegreePolicy(),
				File:       r.file,
				FileBlocks: 1 << 20,
				Env:        h.env,
			})
			drivers[r.file] = h
		}
		tick++
		h.d.OnUserRequest(r.req, tick, allCached)
		landed := h.env.done
		h.env.done = nil
		for _, done := range landed {
			done()
		}
	})
}

// recordMicro times the benchmark's own span recording.
func recordMicro(tr *tracer, m values) {
	ring := tr.ring()
	now := time.Now()
	m["bench.record_ns"] = perOp(1_000_000, func(i int) { ring.record(0, now, time.Microsecond, int64(i)) })
}

// layerMicro times single public calls of each layer of the live
// stack in isolation. The counts are fixed.
func layerMicro(m values) error {
	// Engine miss and write against a store without latency: the cost
	// of the engine's own miss and write paths.
	eng, err := lapcache.New(lapcache.Config{
		Alg: liveAlg, BlockSize: blockSize, CacheBlocks: 1024,
		Store: lapcache.NewMemStore(blockSize, 0),
	})
	if err != nil {
		return err
	}
	r := newRNG(1, 7)
	var bufs []*blockbuf.Buf
	var opErr error
	m["lapcache.engine_miss_ns"] = perOp(20_000, func(int) {
		var err error
		if bufs, _, err = eng.ReadInto(bufs[:0], 1, blockdev.BlockNo(r.intn(1<<20)), 1); err != nil {
			opErr = err
			return
		}
		bufs[0].Release()
	})
	payload := make([]byte, blockSize)
	m["lapcache.engine_write_ns"] = perOp(20_000, func(i int) {
		if err := eng.Write(2, blockdev.BlockNo(i%2048), 1, payload); err != nil {
			opErr = err
		}
	})
	eng.Shutdown()
	if opErr != nil {
		return fmt.Errorf("engine micro-timing: %w", opErr)
	}

	pool := blockbuf.NewPool(blockSize)
	m["blockbuf.get_release_ns"] = perOp(1_000_000, func(int) { pool.Get().Release() })

	var (
		scratch [wire.HeaderSize]byte
		vec     net.Buffers
	)
	hdr := wire.Header{Op: wire.OpRead, Flags: wire.FlagHit, File: 1, Size: 1}
	m["wire.encode_ns"] = perOp(1_000_000, func(i int) {
		hdr.Seq = uint32(i)
		if err := wire.WriteFrameVectored(io.Discard, scratch[:], hdr, payload, &vec); err != nil {
			opErr = err
		}
	})
	m["wire.parse_ns"] = perOp(5_000_000, func(int) {
		h, err := wire.ParseHeader(scratch[:])
		if err != nil {
			opErr = err
		}
		sink += uint64(h.PayloadLen)
	})
	if opErr != nil {
		return fmt.Errorf("wire micro-timing: %w", opErr)
	}

	ring, err := cluster.NewRing([]string{"127.0.0.1:7021", "127.0.0.1:7022", "127.0.0.1:7023"}, 0)
	if err != nil {
		return err
	}
	m["cluster.ring_owner_ns"] = perOp(1_000_000, func(i int) { sink += uint64(len(ring.Owner(blockdev.FileID(i)))) })

	floor, err := loopbackFloor(20_000)
	if err != nil {
		return fmt.Errorf("loopback floor: %w", err)
	}
	m["wire.loopback_floor_ns"] = floor
	return nil
}

// loopbackFloor is the cheapest request a TCP loopback pair can serve
// here: the client writes a 24-byte header, the server answers with a
// 24-byte header and an 8 KiB block in one write. No protocol, no
// cache, no client library: what is left of lapclient.rtt_hit_ns below
// this floor is the stack's own.
func loopbackFloor(n int) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close() //nolint:errcheck // listener on loopback
	srvErr := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			srvErr <- err
			return
		}
		defer c.Close() //nolint:errcheck // echo side
		req := make([]byte, wire.HeaderSize)
		resp := make([]byte, wire.HeaderSize+blockSize)
		for {
			if _, err := io.ReadFull(c, req); err != nil {
				if err == io.EOF {
					err = nil
				}
				srvErr <- err
				return
			}
			if _, err := c.Write(resp); err != nil {
				srvErr <- err
				return
			}
		}
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, err
	}
	req := make([]byte, wire.HeaderSize)
	resp := make([]byte, wire.HeaderSize+blockSize)
	var opErr error
	ns := perOp(n, func(int) {
		if _, err := c.Write(req); err != nil {
			opErr = err
		}
		if _, err := io.ReadFull(c, resp); err != nil {
			opErr = err
		}
	})
	c.Close() //nolint:errcheck // the echo side reports errors
	if err := <-srvErr; err != nil {
		return 0, err
	}
	return ns, opErr
}

// tierTarget is what a replay tier issues operations against.
type tierTarget interface {
	read(f blockdev.FileID, b blockdev.BlockNo) (hit bool, err error)
	write(f blockdev.FileID, b blockdev.BlockNo, data []byte) error
}

type engineTarget struct {
	eng  *lapcache.Engine
	bufs []*blockbuf.Buf
}

func (t *engineTarget) read(f blockdev.FileID, b blockdev.BlockNo) (bool, error) {
	var (
		hit bool
		err error
	)
	if t.bufs, hit, err = t.eng.ReadInto(t.bufs[:0], f, b, 1); err != nil {
		return false, err
	}
	t.bufs[0].Release()
	return hit, nil
}

func (t *engineTarget) write(f blockdev.FileID, b blockdev.BlockNo, data []byte) error {
	return t.eng.Write(f, b, 1, data)
}

type connTarget struct {
	conn *lapclient.Conn
	dsts [][]byte
}

func (t *connTarget) read(f blockdev.FileID, b blockdev.BlockNo) (bool, error) {
	return t.conn.ReadInto(f, b, 1, t.dsts)
}

func (t *connTarget) write(f blockdev.FileID, b blockdev.BlockNo, data []byte) error {
	return t.conn.Write(f, b, 1, data)
}

// tierStats is what one tier of the replay measured: latencies of
// reads served from memory and of writes, ascending, in ns.
type tierStats struct{ reads, writes []uint32 }

// replay issues ops against one tier, one span per call under a root
// span named after the tier.
func replay(tier string, target tierTarget, ops []op, ids []blockdev.FileID, tr *tracer) (tierStats, error) {
	start := time.Now()
	root := tr.add("tier."+tier, start, 0, -1)
	var st tierStats
	payload := make([]byte, blockSize)
	for i, o := range ops {
		f, b := ids[o.file], blockdev.BlockNo(o.block)
		switch o.kind {
		case opRead:
			t0 := time.Now()
			hit, err := target.read(f, b)
			d := time.Since(t0)
			if err != nil {
				return st, fmt.Errorf("tier %s: read %d:%d: %w", tier, f, b, err)
			}
			tr.addOp(tier+".read", t0, d, root, int64(i))
			if hit {
				st.reads = append(st.reads, uint32(min(d, 1<<32-1)))
			}
		case opWrite:
			fillBlock(blockdev.BlockID{File: f, Block: b}, payload)
			t0 := time.Now()
			err := target.write(f, b, payload)
			d := time.Since(t0)
			if err != nil {
				return st, fmt.Errorf("tier %s: write %d:%d: %w", tier, f, b, err)
			}
			tr.addOp(tier+".write", t0, d, root, int64(i))
			st.writes = append(st.writes, uint32(min(d, 1<<32-1)))
		}
	}
	tr.setDuration(root, time.Since(start))
	slices.Sort(st.reads)
	slices.Sort(st.writes)
	return st, nil
}

// preloadBlocks puts every block ops touch into eng's cache (only
// those of files owned says yes to, when given).
func preloadBlocks(eng *lapcache.Engine, ops []op, ids []blockdev.FileID, owned func(blockdev.FileID) bool) {
	for _, o := range ops {
		if f := ids[o.file]; o.kind != opClose && (owned == nil || owned(f)) {
			eng.Preload(f, blockdev.BlockNo(o.block), 1, false)
		}
	}
}

// replayTiers replays one stream, all of it in memory, at three tiers:
// calling the engine directly, through a client connection to a server
// over loopback, and through a cluster node that owns none of the
// files. A tier's self time is its mean minus the tier below: the
// in-process -> loopback -> peer ladder.
func replayTiers(l ladder, tr *tracer, m values) (loopback tierStats, err error) {
	cacheBlocks := len(l.ops) + 1024
	ids := sequentialIDs(l.nFiles)
	cfg := func() lapcache.Config {
		return lapcache.Config{
			Alg: liveAlg, BlockSize: blockSize, CacheBlocks: cacheBlocks,
			Store: lapcache.NewMemStore(blockSize, storeLatency), FileBlocks: fileTable(ids, l.blocks),
		}
	}

	eng, err := lapcache.New(cfg())
	if err != nil {
		return loopback, err
	}
	preloadBlocks(eng, l.ops, ids, nil)
	inProcess, err := replay("engine", &engineTarget{eng: eng}, l.ops, ids, tr)
	eng.Shutdown()
	if err != nil {
		return loopback, err
	}

	eng, addr, stop, err := serveEngine(cfg(), 1)
	if err != nil {
		return loopback, err
	}
	preloadBlocks(eng, l.ops, ids, nil)
	conns, err := dial(addr, 1, 1)
	if err != nil {
		stop()
		eng.Shutdown()
		return loopback, err
	}
	loopback, err = replay("lapclient", &connTarget{conn: conns[0], dsts: [][]byte{make([]byte, blockSize)}}, l.ops, ids, tr)
	conns[0].Close() //nolint:errcheck // read side
	stop()
	eng.Shutdown()
	if err != nil {
		return loopback, err
	}

	// Node 0 serves the client, owns none of the files and caches next
	// to nothing, so every read is forwarded to the owner's memory.
	nodes, stopCluster, err := cluster.StartLocal(3, func(i int, _ []string) lapcache.Config {
		c := cfg()
		c.FileBlocks = nil
		if i == 0 {
			c.CacheBlocks = 64
		}
		return c
	})
	if err != nil {
		return loopback, err
	}
	defer stopCluster()
	ownerOf := func(f blockdev.FileID) string {
		addr, _ := nodes[0].Node.OwnerOf(f)
		return addr
	}
	want := make([]string, l.nFiles)
	for i := range want {
		want[i] = nodes[1+i%2].Addr
	}
	peerIDs := pinFiles(ownerOf, want)
	for _, n := range nodes {
		n.Engine.RegisterFiles(fileTable(peerIDs, l.blocks))
	}
	for _, n := range nodes[1:] {
		preloadBlocks(n.Engine, l.ops, peerIDs, func(f blockdev.FileID) bool { return ownerOf(f) == n.Addr })
	}
	conns, err = dial(nodes[0].Addr, 1, 1)
	if err != nil {
		return loopback, err
	}
	defer conns[0].Close() //nolint:errcheck // read side
	viaPeer, err := replay("cluster", &connTarget{conn: conns[0], dsts: [][]byte{make([]byte, blockSize)}}, l.ops, peerIDs, tr)
	if err != nil {
		return loopback, err
	}

	m["lapcache.engine_hit_ns"] = mean(inProcess.reads)
	m["lapclient.rtt_hit_ns"] = mean(loopback.reads)
	m["cluster.remote_hit_ns"] = mean(viaPeer.reads)
	logf("ladder, mean ns per read served from memory: engine %.0f -> lapclient %.0f -> cluster %.0f",
		mean(inProcess.reads), mean(loopback.reads), mean(viaPeer.reads))
	logf("ladder, mean ns per write: engine %.0f -> lapclient %.0f -> cluster %.0f",
		mean(inProcess.writes), mean(loopback.writes), mean(viaPeer.writes))
	return loopback, nil
}

// ladderWrites is how many writes a replay has at least: a stream
// without writes gets this many appended, so that every traced run
// times the write path of every tier.
const ladderWrites = 2000

// withWrites returns l with at least ladderWrites writes: missing ones
// are appended as a sequential rewrite of the first file read.
func (l ladder) withWrites() ladder {
	have := 0
	for _, o := range l.ops {
		if o.kind == opWrite {
			have++
		}
	}
	for i := 0; have < ladderWrites; i, have = i+1, have+1 {
		l.ops = append(l.ops, op{file: l.ops[0].file, block: int32(i) % l.blocks, kind: opWrite})
	}
	return l
}

// simProbe times one cell of each (file system, workload) pair, one at
// a time, for the traced runs of the live workloads, so that every
// traced run reports every layer's timing. (sim_sweep's own traced run
// takes the same metrics from its sweeps.)
func simProbe(seed uint64, tr *tracer, m values) error {
	in, err := buildSimInputs(seed, tr)
	if err != nil {
		return err
	}
	var jobs []simJob
	seen := map[string]bool{}
	for _, j := range in.jobs {
		if !seen[j.group()] && j.cell.Alg == liveAlg && j.cell.CacheMB == simProbeCacheMB {
			seen[j.group()] = true
			jobs = append(jobs, j)
		}
	}
	var events uint64
	var wallNs float64
	for _, j := range jobs {
		res := sweep([]simJob{j}, in.warm, tr)
		if res.errs[0] != nil {
			return res.errs[0]
		}
		m["experiment.cell_ms."+j.group()] = res.cellMs[0]
		events += res.results[0].EventsFired
		wallNs += res.cellMs[0] * 1e6
	}
	m["sim.event_ns"] = wallNs / float64(events)
	m["workload.gen_ms"] = in.genMs
	return nil
}
