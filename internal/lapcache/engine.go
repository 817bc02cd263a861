// Package lapcache is the live counterpart of the simulator: a
// goroutine-concurrent prefetching block cache built on the paper's
// predictors. The predictor state machines and the linear-aggressive
// driver come verbatim from internal/core — one model, two clocks: the
// simulator feeds virtual nanoseconds, this engine feeds a per-file
// logical sequence number.
//
// The simulator's resources map onto runtime machinery as follows:
// the cooperative cache directory becomes a sharded, mutex-striped
// block cache; the disk array becomes a BackingStore; the low-priority
// prefetch disk queue becomes a bounded channel drained by a worker
// pool, whose fullness is the backpressure signal that parks a
// driver's chain; and the per-file prefetch server of PAFS becomes a
// per-file mutex under which the (single-threaded by contract) driver
// runs. In a cluster (Config.Remote) that server is the file's ring
// owner: every other node sends it each read and write of the file and
// keeps no copy, so each block has one, on its owner.
package lapcache

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/blockbuf"
	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/wire"
)

// Config assembles an engine.
type Config struct {
	// Alg is the prefetching configuration in the paper's notation
	// (e.g. core.SpecLnAgrISPPM3); core.AlgNone disables prefetching.
	Alg core.AlgSpec
	// BlockSize is the cache and store block size in bytes.
	BlockSize int
	// CacheBlocks is the cache capacity in blocks.
	CacheBlocks int
	// Shards stripes the cache over this many mutexes (default 8,
	// rounded to a power of two).
	Shards int
	// Store is the slow medium behind the cache.
	Store BackingStore
	// Workers is the prefetch worker pool size (default 4).
	Workers int
	// QueueLen bounds the prefetch queue (default 64); a full queue
	// refuses further prefetches, which parks the refusing file's
	// chain until its next satisfied request.
	QueueLen int
	// FileBlocks maps known files to their length in blocks, clipping
	// prefetch chains at end of file (a trace's file table goes here);
	// a file missing from it is taken to be defaultFileBlocks long.
	FileBlocks map[blockdev.FileID]blockdev.BlockNo
	// StrictLinear makes any breach of the per-file outstanding limit
	// panic instead of only counting — the server-side assertion that
	// linear mode really keeps at most one prefetch per file in
	// flight.
	StrictLinear bool
	// PoisonBufs turns on the buffer pool's test mode: released
	// buffers are poisoned and verified on recycle, so a holder that
	// writes through a stale reference panics instead of corrupting a
	// later block. Costs a full-block write per recycle; tests only.
	PoisonBufs bool
	// Remote, when non-nil, puts the engine in cooperative-cluster
	// mode: reads and writes of files this node does not own are
	// forwarded to the ring owner and cached nowhere else, and drivers
	// are only created for owned files (the PAFS one-server-per-file
	// rule, applied cluster-wide). nil is a single-node engine that
	// owns everything.
	Remote RemoteFetcher
}

// defaultFileBlocks sizes a file the engine has no length for.
const defaultFileBlocks blockdev.BlockNo = 1 << 20

// fetchOp is one in-flight store fetch, demand or speculative,
// registered in the inflight map under the block it will produce. It
// is the singleflight rendezvous: whoever claims it performs the
// fetch, everyone else waits on wg; err is written before wg.Done.
//
// Ops are recycled through Engine.fops (a demand miss used to cost an
// op plus a done-channel allocation). refs counts the registrant plus
// every waiter; the last releaseFetchOp returns the op to the pool.
// Reuse is safe because the registrant deletes the map entry before
// calling Done — no waiter can join after that — and every waiter's
// Wait has returned (and err been read) before refs can reach zero.
type fetchOp struct {
	prefetch bool
	err      error
	refs     atomic.Int32
	wg       sync.WaitGroup
}

// prefetchOp is one queued speculative fetch. The callbacks belong to
// the issuing driver and must only run under its file's mutex.
type prefetchOp struct {
	b         blockdev.BlockID
	fl        *fileState
	cancelled func() bool
	done      func()
}

// fileState serializes one file's driver. The core.Driver is
// single-goroutine by contract; mu is what makes that contract hold on
// a concurrent server — the runtime image of PAFS's one-server-per-
// file design, which is exactly what makes its prefetching truly
// linear (§4).
type fileState struct {
	mu     sync.Mutex
	driver *core.Driver // nil when Alg is NP or the file is not owned
	tick   core.Tick    // per-file logical clock fed to the predictor

	// degree is the file's prefetch window. Immutable after fileState
	// creation (an adaptive window is internally synchronized), so
	// feedback paths may read it without holding mu. It also counts the
	// file's prefetches in flight, which the driver, under mu, updates;
	// Snapshot and HighWaters read its atomic high-water and over-cap
	// counts.
	degree *core.DegreePolicy

	// owned: this node runs f's chain (always, on a single node).
	// Decided once, when the fileState is created: the ring is fixed.
	owned bool
}

// Engine is a concurrent prefetching block cache.
//
// Lock hierarchy: fileState.mu > filesMu > flightMu > cacheShard.mu.
// A goroutine may acquire rightward while holding leftward, never the
// reverse; store reads and channel sends happen under no lock or
// fileState.mu only. (filesMu sits below fileState.mu because lazy
// driver creation — under fl.mu — reads the file table; the fileState
// lookup path takes filesMu alone and releases it before touching any
// fl.mu.)
type Engine struct {
	cfg    Config
	cache  *blockCache
	store  BackingStore
	pool   *blockbuf.Pool
	remote RemoteFetcher // nil on a single-node engine

	m    Metrics
	fops sync.Pool // recycled *fetchOp
	dsts sync.Pool // recycled *[][]byte: forwardRead's FetchSpan destinations
	// adaptive gates the degree-policy half of timely/late/wasted.
	adaptive bool

	filesMu    sync.RWMutex
	files      map[blockdev.FileID]*fileState
	fileBlocks map[blockdev.FileID]blockdev.BlockNo

	flightMu sync.Mutex
	inflight map[blockdev.BlockID]*fetchOp

	pfq  chan prefetchOp
	quit chan struct{}
	wg   sync.WaitGroup
	stop sync.Once
}

// New validates the configuration, starts the worker pool and returns
// a running engine. Call Shutdown when done.
func New(cfg Config) (*Engine, error) {
	if err := cfg.Alg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Store == nil {
		return nil, fmt.Errorf("lapcache: config needs a backing store")
	}
	if cfg.BlockSize <= 0 {
		return nil, fmt.Errorf("lapcache: invalid block size %d", cfg.BlockSize)
	}
	if cfg.CacheBlocks <= 0 {
		return nil, fmt.Errorf("lapcache: invalid cache capacity %d", cfg.CacheBlocks)
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 8
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.QueueLen <= 0 {
		cfg.QueueLen = 64
	}
	e := &Engine{
		cfg:        cfg,
		store:      cfg.Store,
		pool:       blockbuf.NewPool(cfg.BlockSize),
		remote:     cfg.Remote,
		adaptive:   cfg.Alg.Adaptive,
		files:      make(map[blockdev.FileID]*fileState),
		fileBlocks: make(map[blockdev.FileID]blockdev.BlockNo, len(cfg.FileBlocks)),
		inflight:   make(map[blockdev.BlockID]*fetchOp),
		pfq:        make(chan prefetchOp, cfg.QueueLen),
		quit:       make(chan struct{}),
	}
	if cfg.PoisonBufs {
		e.pool.SetPoison(true)
	}
	for f, b := range cfg.FileBlocks {
		e.fileBlocks[f] = b
	}
	e.cache = newBlockCache(cfg.CacheBlocks, cfg.Shards, e.wasted)
	for i := 0; i < cfg.Workers; i++ {
		e.wg.Add(1)
		go e.worker()
	}
	return e, nil
}

// BlockSize returns the configured block size in bytes.
func (e *Engine) BlockSize() int { return e.cfg.BlockSize }

// AlgName returns the paper-notation name of the running algorithm.
func (e *Engine) AlgName() string { return e.cfg.Alg.Name() }

// RegisterFiles merges a file table (file → length in blocks) into the
// engine, typically a replayed trace's. Sizes only affect files whose
// driver has not been created yet.
func (e *Engine) RegisterFiles(table map[blockdev.FileID]blockdev.BlockNo) {
	e.filesMu.Lock()
	for f, b := range table {
		e.fileBlocks[f] = b
	}
	e.filesMu.Unlock()
}

// fileState returns (creating on first touch) the state for f.
func (e *Engine) fileState(f blockdev.FileID) *fileState {
	e.filesMu.RLock()
	fl := e.files[f]
	e.filesMu.RUnlock()
	if fl != nil {
		return fl
	}
	e.filesMu.Lock()
	defer e.filesMu.Unlock()
	if fl := e.files[f]; fl != nil {
		return fl
	}
	fl = &fileState{degree: e.cfg.Alg.NewDegreePolicy(), owned: e.remote == nil || e.remote.Owned(f)}
	if e.cfg.StrictLinear {
		fl.degree.SetStrict()
	}
	e.files[f] = fl
	return fl
}

// newDriver builds f's chain driver. Callers hold fl.mu.
func (e *Engine) newDriver(f blockdev.FileID, fl *fileState) *core.Driver {
	e.filesMu.RLock()
	blocks := e.fileBlocks[f]
	e.filesMu.RUnlock()
	if blocks <= 0 {
		blocks = defaultFileBlocks
	}
	return core.NewDriver(core.DriverConfig{
		Predictor:  e.cfg.Alg.NewPredictor(),
		Mode:       e.cfg.Alg.Mode,
		Degree:     fl.degree,
		File:       f,
		FileBlocks: blocks,
		Env:        &runtimeEnv{e: e, fl: fl},
	})
}

// driverLocked returns f's driver, creating it on first use, if this
// node runs f's chain. In a cluster only the ring owner runs a file's
// driver: the whole point of per-file ownership is that exactly one
// chain walker exists per file, so "≤ 1 outstanding prefetch" holds
// across every node, not merely within each (PAFS vs. xFS, §4).
//
// Callers hold fl.mu.
func (e *Engine) driverLocked(f blockdev.FileID, fl *fileState) *core.Driver {
	if fl.driver == nil && fl.owned && e.cfg.Alg.Prefetches() {
		fl.driver = e.newDriver(f, fl)
	}
	return fl.driver
}

// reqMode says on whose behalf a request runs — the engine-side image
// of the wire's FlagPeer bit, and the only thing that distinguishes
// one read, write or close from another.
type reqMode uint8

const (
	// modeClient: a client's own request. Files this node does not own
	// are forwarded to the ring owner.
	modeClient reqMode = iota
	// modePeer: forwarded by a cluster peer (FlagPeer). Served strictly
	// locally — cache, then backing store — and never re-forwarded,
	// whatever the ring says: the contract that keeps forwarding
	// loop-free. The request still feeds this node's driver: the owner
	// sees every peer's accesses to its files as (offset, size)
	// requests, which is exactly what lets it model the cluster-wide
	// access stream and run the one true prefetch chain.
	modePeer
)

// ReadInto serves a demand read of nblocks blocks starting at off,
// appending one retained buffer per block to bufs (usually a reused
// slice; pass bufs[:0]) and returning the extended slice. The caller
// owns one reference to every appended buffer and must Release each;
// the buffers stay valid even if the cache evicts or overwrites the
// blocks meanwhile. hit reports that every block was served from
// memory on arrival — this node's cache or, for a forwarded span, the
// ring owner's — the satisfaction criterion fed to the driver (§3.1).
//
// On error the appended buffers are released and bufs is returned at
// its original length.
func (e *Engine) ReadInto(bufs []*blockbuf.Buf, f blockdev.FileID, off blockdev.BlockNo, nblocks int32) ([]*blockbuf.Buf, bool, error) {
	return e.read(bufs, f, off, nblocks, modeClient)
}

// spanOK reports whether the engine serves a span of nblocks blocks at
// off: a nonempty one, no longer than one read's payload cap
// (wire.MaxDataBytes) in blocks, whether or not it carries data, and
// with every block number in range. Outside input reaches read and
// write as it is, and a longer span would gather a buffer per block.
func (e *Engine) spanOK(off blockdev.BlockNo, nblocks int32) bool {
	return nblocks > 0 && off >= 0 && int(nblocks) <= wire.MaxDataBytes/e.cfg.BlockSize &&
		int64(off)+int64(nblocks) <= math.MaxInt32
}

// read is the one demand-read body: a client's read of a file owned
// elsewhere goes to the owner; any other read is served here, then fed
// to the file's driver.
func (e *Engine) read(bufs []*blockbuf.Buf, f blockdev.FileID, off blockdev.BlockNo, nblocks int32, m reqMode) ([]*blockbuf.Buf, bool, error) {
	if !e.spanOK(off, nblocks) {
		return bufs, false, fmt.Errorf("lapcache: invalid read %d:[%d,+%d]", f, off, nblocks)
	}
	if e.forwarded(f, m) {
		return e.forwardRead(bufs, f, off, nblocks)
	}
	if m != modeClient {
		e.m.peerReads.Add(1)
	}
	bufs, hit, err := e.readSpan(bufs, f, off, nblocks)
	if err != nil {
		return bufs, false, err
	}
	e.feedDriver(f, core.Request{Offset: off, Size: nblocks}, hit)
	return bufs, hit, nil
}

// forwarded reports whether a request of f goes to f's ring owner: a
// client's own request of a file this node does not own.
func (e *Engine) forwarded(f blockdev.FileID, m reqMode) bool {
	return m == modeClient && e.remote != nil && !e.remote.Owned(f)
}

// forwardRead serves a client's read of a file owned elsewhere as one
// span RPC to the owner, landing in fresh buffers appended to bufs for
// the caller. The owner's predictor models (offset, size) requests, not
// per-block chatter, and concurrent reads of one block, each sent here,
// meet in the owner's own fetch path. This node keeps no copy, as each
// block has one, on its owner, and runs no driver for the file. hit
// reports the owner answered every block from its memory: a
// cooperative-cache hit, the satisfaction the paper measures. With the
// owner unreachable the read fails with ErrOwnerUnreachable.
//
// On error the appended buffers are released and bufs is returned at
// its original length.
func (e *Engine) forwardRead(bufs []*blockbuf.Buf, f blockdev.FileID, off blockdev.BlockNo, nblocks int32) ([]*blockbuf.Buf, bool, error) {
	base := len(bufs)
	dp, _ := e.dsts.Get().(*[][]byte)
	if dp == nil {
		dp = new([][]byte)
	}
	dsts := (*dp)[:0]
	for k := int32(0); k < nblocks; k++ {
		buf := e.pool.Get()
		bufs = append(bufs, buf)
		dsts = append(dsts, buf.Bytes())
	}
	hit, err := e.remote.FetchSpan(f, off, nblocks, dsts)
	if e.refused(err) == nil {
		e.m.remoteReads.Add(uint64(nblocks))
		if hit {
			e.m.remoteHits.Add(uint64(nblocks))
		} else {
			e.m.remoteMisses.Add(uint64(nblocks))
		}
	}
	clear(dsts) // drop the block references before pooling
	*dp = dsts[:0]
	e.dsts.Put(dp)
	if err != nil {
		return dropFrom(bufs, base), false, err
	}
	return bufs, hit, nil
}

// readSpan is the one way a local demand read gets its blocks. Per
// block: a cached copy is a hit, and the first touch of a still-flagged
// speculative copy a timely prefetch; a fetch already under way is
// joined, never repeated — a speculative one the demand caught in
// flight is a late prefetch — and the block re-checked once it lands;
// otherwise the reader claims the block and fills it from the store
// itself. A claim covers one block, so concurrent readers of
// neighbouring blocks still fetch in parallel.
func (e *Engine) readSpan(bufs []*blockbuf.Buf, f blockdev.FileID, off blockdev.BlockNo, nblocks int32) ([]*blockbuf.Buf, bool, error) {
	base := len(bufs)
	hit := true
	waited := false // true while re-checking a block whose fetch we waited on
	for i := int32(0); i < nblocks; {
		b := blockdev.BlockID{File: f, Block: off + blockdev.BlockNo(i)}
		if buf, wasPrefetched, ok := e.cache.Get(b); ok {
			bufs = append(bufs, buf)
			if waited {
				// Its fetch was still in flight on arrival: a miss, and if
				// the fetch was speculative, already counted late.
				e.m.demandMisses.Add(1)
				hit = false
			} else {
				e.m.demandHits.Add(1)
				if wasPrefetched {
					e.timely(f)
				}
			}
			i++
			waited = false
			continue
		}

		e.flightMu.Lock()
		if fo := e.inflight[b]; fo != nil {
			fo.join()
			e.flightMu.Unlock()
			if fo.prefetch && !waited {
				e.late(f)
			}
			waited = true
			fo.wg.Wait()
			err := fo.err
			e.releaseFetchOp(fo)
			if err != nil {
				return dropFrom(bufs, base), false, err
			}
			continue // the block should be cached now; re-check
		}
		fo := e.claim(b, false)
		e.flightMu.Unlock()
		if fo == nil {
			continue // landed between our Get miss and taking flightMu
		}
		buf, err := e.fill(fo, b)
		bufs = append(bufs, buf)
		if err != nil {
			return dropFrom(bufs, base), false, err
		}
		e.m.demandMisses.Add(1)
		hit = false
		i++
		waited = false
	}
	return bufs, hit, nil
}

// dropFrom releases bufs[base:] and returns bufs cut back to base.
func dropFrom(bufs []*blockbuf.Buf, base int) []*blockbuf.Buf {
	for _, held := range bufs[base:] {
		held.Release()
	}
	return bufs[:base]
}

// claim registers one fetchOp for b unless b is cached or in flight,
// making the caller the one goroutine that fetches it. A nil op means
// b is taken. Callers hold flightMu.
func (e *Engine) claim(b blockdev.BlockID, prefetch bool) *fetchOp {
	if e.inflight[b] != nil || e.cache.Contains(b) {
		return nil
	}
	fo := e.newFetchOp(prefetch)
	e.inflight[b] = fo
	return fo
}

// fill is the one body behind every local fetch, demand or
// speculative: read the claimed block b from the store into a fresh
// buffer, publish it in the cache, record the outcome on fo, unregister
// b and wake the joiners. The returned buffer carries one reference for
// the caller, on error too; the cache holds its own.
func (e *Engine) fill(fo *fetchOp, b blockdev.BlockID) (*blockbuf.Buf, error) {
	buf := e.pool.Get()
	err := e.store.ReadBlock(b, buf.Bytes())
	if err == nil {
		e.m.storeReads.Add(1)
		e.cache.Put(b, buf.Retain(), fo.prefetch)
	}
	fo.err = err
	e.flightMu.Lock()
	delete(e.inflight, b)
	if err != nil {
		e.cache.evictions.Add(1) // runtimeEnv.Cached said it was coming
	}
	e.flightMu.Unlock()
	fo.wg.Done()
	e.releaseFetchOp(fo)
	return buf, err
}

// The three prefetch outcomes, each booked at exactly one site: the
// counter and, on an adaptive engine, the file's prefetch window
// (static windows ignore feedback, so non-adaptive engines skip the
// fileState lookup and stay on the historical hot path).

// timely: a user request touched a speculative block that had already
// arrived — a first read, or a write over it.
func (e *Engine) timely(f blockdev.FileID) {
	e.m.prefetchTimely.Add(1)
	if e.adaptive {
		e.fileState(f).degree.OnTimely()
	}
}

// late: a demand read found the predictor's block still in flight.
func (e *Engine) late(f blockdev.FileID) {
	e.m.prefetchLate.Add(1)
	if e.adaptive {
		e.fileState(f).degree.OnLate()
	}
}

// wasted: the cache evicted a speculative block nobody ever touched.
// It is the cache's onWasted callback, fired outside the shard lock;
// the victim's file is routinely not the file being inserted.
func (e *Engine) wasted(f blockdev.FileID) {
	e.m.prefetchWasted.Add(1)
	if e.adaptive {
		e.fileState(f).degree.OnWasted()
	}
}

// newFetchOp takes a recycled (or fresh) fetchOp armed for one fetch:
// one reference for the registrant, wg primed for waiters.
func (e *Engine) newFetchOp(prefetch bool) *fetchOp {
	fo, _ := e.fops.Get().(*fetchOp)
	if fo == nil {
		fo = &fetchOp{}
	}
	fo.prefetch = prefetch
	fo.err = nil
	fo.refs.Store(1)
	fo.wg.Add(1)
	return fo
}

// releaseFetchOp drops one reference; the last holder recycles the op.
func (e *Engine) releaseFetchOp(fo *fetchOp) {
	if fo.refs.Add(-1) == 0 {
		e.fops.Put(fo)
	}
}

// join registers the caller as a waiter on fo. Must be called with
// flightMu held (so the registrant cannot complete-and-recycle the op
// between the map lookup and the reference bump).
func (fo *fetchOp) join() { fo.refs.Add(1) }

// Write persists nblocks blocks starting at off and installs them in
// the cache as demand fills. A nil data writes each block's
// deterministic fill pattern (the replay client's payload). On a
// cluster node the write of a non-owned file goes to the ring owner —
// its store and cache hold the file's one copy — and nothing is kept
// here; with the owner unreachable it fails with ErrOwnerUnreachable.
func (e *Engine) Write(f blockdev.FileID, off blockdev.BlockNo, nblocks int32, data []byte) error {
	return e.write(f, off, nblocks, data, modeClient)
}

// write is the one write body.
func (e *Engine) write(f blockdev.FileID, off blockdev.BlockNo, nblocks int32, data []byte, m reqMode) error {
	if !e.spanOK(off, nblocks) {
		return fmt.Errorf("lapcache: invalid write %d:[%d,+%d]", f, off, nblocks)
	}
	if data != nil && len(data) != int(nblocks)*e.cfg.BlockSize {
		return fmt.Errorf("lapcache: write payload is %d bytes, want %d",
			len(data), int(nblocks)*e.cfg.BlockSize)
	}
	if e.forwarded(f, m) {
		if err := e.refused(e.remote.ForwardWrite(f, off, nblocks, data)); err != nil {
			return err
		}
		e.m.forwardedWrites.Add(1)
		e.m.writes.Add(1)
		return nil
	}
	if m == modePeer {
		e.m.peerWrites.Add(1)
	}
	if err := e.installSpan(f, off, nblocks, data); err != nil {
		return err
	}
	e.m.writes.Add(1)
	// The write is part of the file's access stream: the predictors
	// model (offset-interval, size) pairs of all requests. A write
	// never waits on prefetched data, so it counts as satisfied.
	e.feedDriver(f, core.Request{Offset: off, Size: nblocks}, true)
	return nil
}

// installSpan writes nblocks blocks (nil data = fill pattern) to the
// store and into the cache. A client's or peer's write over a
// still-flagged speculative block is that block's first user touch —
// timely, as in the simulator's write path.
func (e *Engine) installSpan(f blockdev.FileID, off blockdev.BlockNo, nblocks int32, data []byte) error {
	for i := int32(0); i < nblocks; i++ {
		b := blockdev.BlockID{File: f, Block: off + blockdev.BlockNo(i)}
		buf := e.pool.Get()
		if data != nil {
			copy(buf.Bytes(), data[int(i)*e.cfg.BlockSize:int(i+1)*e.cfg.BlockSize])
		} else {
			FillPattern(b, buf.Bytes())
		}
		if err := e.store.WriteBlock(b, buf.Bytes()); err != nil {
			buf.Release()
			return err
		}
		e.m.storeWrites.Add(1)
		if e.cache.Put(b, buf, false) { // the cache takes the reference
			e.timely(f)
		}
	}
	return nil
}

// closeFile stops f's prefetch chain until its next request, as the
// simulator does on trace close steps. The learned model is kept. On
// a cluster node a client's close of a non-owned file is relayed to
// the ring owner — the only node with a chain to park — and fails like
// any forward when the owner is unreachable. A peer-forwarded close
// parks the local chain and is never relayed again.
func (e *Engine) closeFile(f blockdev.FileID, m reqMode) error {
	if e.forwarded(f, m) {
		return e.refused(e.remote.ForwardClose(f))
	}
	fl := e.fileState(f)
	fl.mu.Lock()
	if d := e.driverLocked(f, fl); d != nil {
		d.StopChain()
	}
	fl.mu.Unlock()
	return nil
}

// refused counts a forward the owner was unreachable for and returns
// err unchanged.
func (e *Engine) refused(err error) error {
	if errors.Is(err, ErrOwnerUnreachable) {
		e.m.remoteFallbacks.Add(1)
	}
	return err
}

// feedDriver runs one user request through f's driver under the
// per-file mutex.
func (e *Engine) feedDriver(f blockdev.FileID, r core.Request, satisfied bool) {
	if !e.cfg.Alg.Prefetches() {
		// No-prefetch algorithms never have a driver to feed
		// (driverLocked returns nil unconditionally); skip the
		// fileState lookup and per-file lock on the hot path.
		return
	}
	fl := e.fileState(f)
	fl.mu.Lock()
	if d := e.driverLocked(f, fl); d != nil {
		fl.tick++
		d.OnUserRequest(r, fl.tick, satisfied)
	}
	fl.mu.Unlock()
}

// Preload stages nblocks blocks of f directly into the cache, bearing
// their deterministic fill pattern, without touching the store or the
// predictor. prefetched arms the speculative flag, letting benchmarks
// and warm-start tooling set up hit and prefetched-hit states exactly.
func (e *Engine) Preload(f blockdev.FileID, off blockdev.BlockNo, nblocks int32, prefetched bool) {
	for i := int32(0); i < nblocks; i++ {
		b := blockdev.BlockID{File: f, Block: off + blockdev.BlockNo(i)}
		buf := e.pool.Get()
		FillPattern(b, buf.Bytes())
		e.cache.Preinstall(b, buf, prefetched)
	}
}

// Snapshot freezes the engine's counters.
func (e *Engine) Snapshot() Snapshot {
	bufAllocs, bufRecycles := e.pool.Stats()
	s := Snapshot{
		BufAllocs:          bufAllocs,
		BufRecycles:        bufRecycles,
		BufLive:            e.pool.Live(),
		DemandHits:         e.m.demandHits.Load(),
		DemandMisses:       e.m.demandMisses.Load(),
		Writes:             e.m.writes.Load(),
		PrefetchIssued:     e.m.prefetchIssued.Load(),
		PrefetchFallback:   e.m.prefetchFallback.Load(),
		PrefetchCompleted:  e.m.prefetchCompleted.Load(),
		PrefetchCancelled:  e.m.prefetchCancelled.Load(),
		PrefetchDropped:    e.m.prefetchDropped.Load(),
		PrefetchDupSkipped: e.m.prefetchDupSkip.Load(),
		PrefetchTimely:     e.m.prefetchTimely.Load(),
		PrefetchLate:       e.m.prefetchLate.Load(),
		PrefetchWasted:     e.m.prefetchWasted.Load(),
		PrefetchUnused:     e.cache.UnusedPrefetched(),
		StoreReads:         e.m.storeReads.Load(),
		StoreWrites:        e.m.storeWrites.Load(),
		RemoteReads:        e.m.remoteReads.Load(),
		RemoteHits:         e.m.remoteHits.Load(),
		RemoteMisses:       e.m.remoteMisses.Load(),
		RemoteFallbacks:    e.m.remoteFallbacks.Load(),
		ForwardedWrites:    e.m.forwardedWrites.Load(),
		PeerReadsServed:    e.m.peerReads.Load(),
		PeerWritesServed:   e.m.peerWrites.Load(),
		CachedBlocks:       e.cache.Len(),
	}
	if e.adaptive {
		// Every window starts linear, so a fresh engine reports 1.
		s.DegreeCap, s.MaxDegree = e.cfg.Alg.MaxOutstanding, 1
	}
	e.filesMu.RLock()
	for _, fl := range e.files {
		s.MaxFileOutstandingHW = max(s.MaxFileOutstandingHW, fl.degree.HighWater())
		s.LinearViolations += fl.degree.OverCap()
		if e.adaptive {
			window, widens, clamps := fl.degree.Stats()
			s.MaxDegree = max(s.MaxDegree, window)
			s.DegreeWidens += widens
			s.DegreeClamps += clamps
		}
	}
	e.filesMu.RUnlock()
	return s
}

// HighWaters returns every file's high-water mark of prefetches in
// flight, leaving out files that never had one. Cluster audits join
// these maps across nodes to check the paper's invariant globally: in
// linear mode a file's marks, over the whole cluster, never exceed 1,
// since only its ring owner ever prefetches it.
func (e *Engine) HighWaters() map[blockdev.FileID]int {
	e.filesMu.RLock()
	defer e.filesMu.RUnlock()
	out := make(map[blockdev.FileID]int)
	for f, fl := range e.files {
		if hw := fl.degree.HighWater(); hw > 0 {
			out[f] = hw
		}
	}
	return out
}

// Shutdown stops the worker pool. Queued prefetch operations are
// abandoned; in-progress ones finish first. Idempotent.
func (e *Engine) Shutdown() {
	e.stop.Do(func() { close(e.quit) })
	e.wg.Wait()
}

// DrainCache releases every cached block back to the buffer pool and
// returns how many were dropped. Call it only after Shutdown (and
// after every server fronting the engine has closed): with the cache
// emptied and no requests in flight, Pool.Live()==0 — any other value
// is a leaked or double-held buffer. The chaos harness asserts exactly
// that after each run.
func (e *Engine) DrainCache() int { return e.cache.Clear() }

// BufLive reports the buffer pool's live count (see blockbuf.Pool.Live).
func (e *Engine) BufLive() int64 { return e.pool.Live() }

// worker drains the prefetch queue.
func (e *Engine) worker() {
	defer e.wg.Done()
	for {
		select {
		case <-e.quit:
			return
		case op := <-e.pfq:
			e.runPrefetch(op)
		}
	}
}

// runPrefetch dispatches one speculative fetch: cancellation check,
// then the demand path's claim → fill with the speculative flag set —
// except that a prefetch never waits: a block already cached or being
// produced by someone else (a demand miss, an earlier prefetch) is
// skipped. Whatever the outcome, the driver's completion callback fires
// once under the file's mutex; after a fetch or a skip it decrements
// outstanding and pumps the chain.
func (e *Engine) runPrefetch(op prefetchOp) {
	op.fl.mu.Lock()
	if op.cancelled() {
		// The chain this operation belonged to was restarted or
		// stopped before dispatch; its driver already reset the
		// outstanding count, so done only hands back its record.
		op.done()
		op.fl.mu.Unlock()
		e.m.prefetchCancelled.Add(1)
		return
	}
	op.fl.mu.Unlock()

	e.flightMu.Lock()
	fo := e.claim(op.b, true)
	e.flightMu.Unlock()
	if fo == nil {
		e.m.prefetchDupSkip.Add(1)
	} else {
		// A failed speculative read is nobody's error but its joiners'.
		buf, _ := e.fill(fo, op.b)
		buf.Release()
		e.m.prefetchCompleted.Add(1)
	}
	op.fl.mu.Lock()
	op.done()
	op.fl.mu.Unlock()
}

// runtimeEnv adapts the engine to core.Env for one file's driver.
// Every method is called with the file's mutex held (the driver only
// runs under it).
type runtimeEnv struct {
	e  *Engine
	fl *fileState
}

// Cached reports whether the block is resident or already being
// fetched — either way the driver must not issue it again.
func (env *runtimeEnv) Cached(b blockdev.BlockID) bool {
	if env.e.cache.Contains(b) {
		return true
	}
	env.e.flightMu.Lock()
	_, busy := env.e.inflight[b]
	env.e.flightMu.Unlock()
	return busy
}

// Evictions moves when a block Cached vouched for may be gone.
func (env *runtimeEnv) Evictions() uint64 { return env.e.cache.evictions.Load() }

// Prefetch enqueues a speculative fetch, refusing when the bounded
// queue is full (backpressure) or the engine is shutting down.
func (env *runtimeEnv) Prefetch(b blockdev.BlockID, fallback bool, cancelled func() bool, done func()) bool {
	select {
	case <-env.e.quit:
		return false
	default:
	}
	op := prefetchOp{b: b, fl: env.fl, cancelled: cancelled, done: done}
	select {
	case env.e.pfq <- op:
		env.e.m.prefetchIssued.Add(1)
		if fallback {
			env.e.m.prefetchFallback.Add(1)
		}
		return true
	default:
		env.e.m.prefetchDropped.Add(1)
		return false
	}
}
