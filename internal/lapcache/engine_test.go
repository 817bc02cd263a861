package lapcache

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/core"
)

// gateStore wraps a BackingStore and blocks reads of blocks at or
// beyond gateFrom until released, signalling each blocked entry. It
// lets tests freeze prefetch traffic at a known point. It counts every
// read attempt, and fails them all once failWith is set.
type gateStore struct {
	inner    BackingStore
	gateFrom blockdev.BlockNo
	started  chan blockdev.BlockID
	calls    atomic.Int32
	failWith atomic.Pointer[error]

	mu       sync.Mutex
	released bool
	release  chan struct{}
}

func newGateStore(inner BackingStore, gateFrom blockdev.BlockNo) *gateStore {
	return &gateStore{
		inner:    inner,
		gateFrom: gateFrom,
		started:  make(chan blockdev.BlockID, 64),
		release:  make(chan struct{}),
	}
}

func (g *gateStore) Release() {
	g.mu.Lock()
	if !g.released {
		g.released = true
		close(g.release)
	}
	g.mu.Unlock()
}

func (g *gateStore) ReadBlock(b blockdev.BlockID, buf []byte) error {
	g.calls.Add(1)
	if b.Block >= g.gateFrom {
		select {
		case g.started <- b:
		default:
		}
		<-g.release
	}
	if err := g.failWith.Load(); err != nil {
		return *err
	}
	return g.inner.ReadBlock(b, buf)
}

func (g *gateStore) WriteBlock(b blockdev.BlockID, data []byte) error {
	return g.inner.WriteBlock(b, data)
}

func newTestEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	if cfg.BlockSize == 0 {
		cfg.BlockSize = 512
	}
	if cfg.Store == nil {
		cfg.Store = NewMemStore(cfg.BlockSize, 0)
	}
	if cfg.CacheBlocks == 0 {
		cfg.CacheBlocks = 128
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(e.Shutdown)
	return e
}

// readCopy is ReadInto plus a copy-out and release, for tests that
// look at the bytes (or at nothing but the error).
func readCopy(e *Engine, f blockdev.FileID, off blockdev.BlockNo, nblocks int32) (data []byte, hit bool, err error) {
	bufs, hit, err := e.ReadInto(nil, f, off, nblocks)
	for _, buf := range bufs {
		data = append(data, buf.Bytes()...)
		buf.Release()
	}
	return data, hit, err
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestDemandMissThenHit(t *testing.T) {
	e := newTestEngine(t, Config{Alg: core.SpecNP})
	data, hit, err := readCopy(e, 3, 7, 1)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if hit {
		t.Error("first read reported a hit")
	}
	want := make([]byte, e.BlockSize())
	FillPattern(blockdev.BlockID{File: 3, Block: 7}, want)
	if !bytes.Equal(data, want) {
		t.Error("read data does not match the fill pattern")
	}
	if _, hit, _ = readCopy(e, 3, 7, 1); !hit {
		t.Error("second read missed")
	}
	snap := e.Snapshot()
	if snap.DemandHits != 1 || snap.DemandMisses != 1 || snap.StoreReads != 1 {
		t.Errorf("counters: %+v", snap)
	}
}

func TestWriteReadBack(t *testing.T) {
	e := newTestEngine(t, Config{Alg: core.SpecNP})
	payload := bytes.Repeat([]byte{0xAB}, 2*e.BlockSize())
	if err := e.Write(1, 4, 2, payload); err != nil {
		t.Fatalf("write: %v", err)
	}
	data, hit, err := readCopy(e, 1, 4, 2)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !hit {
		t.Error("read of just-written blocks missed")
	}
	if !bytes.Equal(data, payload) {
		t.Error("read back wrong data")
	}
	// Bad payload size must be rejected.
	if err := e.Write(1, 0, 1, []byte{1, 2, 3}); err == nil {
		t.Error("short payload accepted")
	}
}

// TestPrefetchTimely runs a strictly sequential scan with pauses long
// enough for the linear OBA chain to stay ahead: after warmup every
// read is a hit on a prefetched block.
func TestPrefetchTimely(t *testing.T) {
	e := newTestEngine(t, Config{
		Alg:        core.SpecLnAgrOBA,
		FileBlocks: map[blockdev.FileID]blockdev.BlockNo{1: 64},
	})
	for b := blockdev.BlockNo(0); b < 32; b++ {
		if _, _, err := readCopy(e, 1, b, 1); err != nil {
			t.Fatalf("read %d: %v", b, err)
		}
		// Let the (zero-latency) prefetch land before the next read.
		waitFor(t, "prefetch quiescence", func() bool {
			s := e.Snapshot()
			return s.PrefetchCompleted+s.PrefetchCancelled+s.PrefetchDupSkipped >= s.PrefetchIssued
		})
	}
	snap := e.Snapshot()
	if snap.PrefetchTimely == 0 {
		t.Errorf("no timely prefetches in a sequential scan: %s", snap)
	}
	if snap.DemandHits == 0 {
		t.Errorf("no demand hits: %s", snap)
	}
	if snap.MaxFileOutstandingHW > 1 {
		t.Errorf("linear mode exceeded 1 outstanding: %s", snap)
	}
	if snap.LinearViolations != 0 {
		t.Errorf("%d linear violations", snap.LinearViolations)
	}
}

// TestBackpressureDrops saturates a 1-slot queue with a frozen worker:
// the unthrottled aggressive driver must get refusals, counted as
// drops, instead of blocking or growing the queue without bound.
func TestBackpressureDrops(t *testing.T) {
	agr, err := core.LookupAlg("Agr_OBA")
	if err != nil {
		t.Fatal(err)
	}
	gs := newGateStore(NewMemStore(512, 0), 1)
	e := newTestEngine(t, Config{
		Alg:        agr,
		BlockSize:  512,
		Store:      gs,
		Workers:    1,
		QueueLen:   1,
		FileBlocks: map[blockdev.FileID]blockdev.BlockNo{1: 256},
	})
	defer gs.Release() // let Shutdown's worker drain finish
	if _, _, err := readCopy(e, 1, 0, 1); err != nil {
		t.Fatalf("read: %v", err)
	}
	waitFor(t, "a dropped prefetch", func() bool { return e.Snapshot().PrefetchDropped >= 1 })
}

func TestCloseFileStopsChain(t *testing.T) {
	e := newTestEngine(t, Config{
		Alg:        core.SpecLnAgrOBA,
		FileBlocks: map[blockdev.FileID]blockdev.BlockNo{1: 64},
	})
	if _, _, err := readCopy(e, 1, 0, 1); err != nil {
		t.Fatalf("read: %v", err)
	}
	e.closeFile(1)
	waitFor(t, "quiescence after close", func() bool {
		s := e.Snapshot()
		return s.PrefetchCompleted+s.PrefetchCancelled+s.PrefetchDupSkipped >= s.PrefetchIssued
	})
	issued := e.Snapshot().PrefetchIssued
	time.Sleep(20 * time.Millisecond)
	if now := e.Snapshot().PrefetchIssued; now != issued {
		t.Errorf("prefetches kept flowing after close: %d -> %d", issued, now)
	}
}

// twoWalkers locks file f's state and gives it a second chain walker
// beside the engine's own (what a second node driving the file would
// be), with the engine's own already one prefetch deep. Each driver
// stays within its window; the stray's first issue takes their sum
// past it. The caller unlocks f's state.
func twoWalkers(e *Engine, f blockdev.FileID) (fl *fileState, stray *core.Driver) {
	fl = e.fileState(f)
	fl.mu.Lock()
	e.driverLocked(f, fl).OnUserRequest(core.Request{Offset: 0, Size: 1}, 1, false)
	return fl, e.newDriver(f, fl)
}

// TestLedgerStrictPanics: Config.StrictLinear arms every file's window
// at the algorithm's degree cap, so a second outstanding prefetch on a
// linear engine is a panic, not a statistic.
func TestLedgerStrictPanics(t *testing.T) {
	e := newTestEngine(t, Config{Alg: core.SpecLnAgrOBA, StrictLinear: true})
	fl, stray := twoWalkers(e, 1)
	defer fl.mu.Unlock()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("second outstanding prefetch did not panic in strict mode")
			}
		}()
		stray.OnUserRequest(core.Request{Offset: 8, Size: 1}, 2, false)
	}()
	// Hand the stray's prefetch back, so the engine's own chain runs on
	// within the cap once the file is unlocked.
	stray.StopChain()
}

// TestLedgerCountsViolations: without StrictLinear the same breach is
// counted, and both it and the high-water mark surface in Snapshot and
// HighWaters.
func TestLedgerCountsViolations(t *testing.T) {
	e := newTestEngine(t, Config{Alg: core.SpecLnAgrOBA})
	fl, stray := twoWalkers(e, 2)
	stray.OnUserRequest(core.Request{Offset: 8, Size: 1}, 2, false)
	s, hw := e.Snapshot(), e.HighWaters()
	stray.StopChain()
	fl.mu.Unlock()
	if s.LinearViolations != 1 || s.MaxFileOutstandingHW != 2 {
		t.Errorf("snapshot: violations=%d maxHW=%d, want 1/2", s.LinearViolations, s.MaxFileOutstandingHW)
	}
	if len(hw) != 1 || hw[2] != 2 {
		t.Errorf("HighWaters = %v, want map[2:2]", hw)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Alg: core.SpecNP, BlockSize: 512, CacheBlocks: 8}); err == nil {
		t.Error("missing store accepted")
	}
	if _, err := New(Config{Alg: core.SpecNP, Store: NewMemStore(512, 0), CacheBlocks: 8}); err == nil {
		t.Error("zero block size accepted")
	}
	if _, err := New(Config{Alg: core.SpecNP, Store: NewMemStore(512, 0), BlockSize: 512}); err == nil {
		t.Error("zero capacity accepted")
	}
	bad := core.AlgSpec{Kind: core.AlgISPPM, Order: 0}
	if _, err := New(Config{Alg: bad, Store: NewMemStore(512, 0), BlockSize: 512, CacheBlocks: 8}); err == nil {
		t.Error("invalid algorithm accepted")
	}
}
