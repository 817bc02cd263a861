package lapcache

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/core"
)

// fetchCounts is every counter the one fetch path moves, plus the
// source calls behind them (attempts, successful or not).
type fetchCounts struct {
	hits, misses, timely, late                     uint64
	storeReads, remoteReads, remoteHits, fallbacks uint64
	storeCalls, fetchCalls                         int32
}

func (a fetchCounts) plus(b fetchCounts) fetchCounts {
	return fetchCounts{
		a.hits + b.hits, a.misses + b.misses, a.timely + b.timely, a.late + b.late,
		a.storeReads + b.storeReads, a.remoteReads + b.remoteReads, a.remoteHits + b.remoteHits, a.fallbacks + b.fallbacks,
		a.storeCalls + b.storeCalls, a.fetchCalls + b.fetchCalls,
	}
}

// fetchSource is one place a missing block can come from: the local
// store, or, for a file the fake remote says another node owns, that
// owner (in one of its states).
type fetchSource struct {
	name string
	file blockdev.FileID   // fakeRemote owns even files; odd ones go to the owner
	arm  func(*fakeRemote) // nil: a live owner serving from memory
	// span is how many blocks one source call covers when a reader asks
	// for fetchSpan of them: the store's unit is a block, the owner's a
	// span.
	span int32
	// memory: a read from this source still counts as a hit (the owner
	// served it from its memory).
	memory bool
	// fill is what fetching one run of n blocks books.
	fill func(n uint64) fetchCounts
	// fail makes the source return errBoom (after any gate opens).
	fail func(*fetchFixture)
	// refusal is the error every read from the source returns whatever
	// fail did: the owner could not be reached. nil for a source that
	// serves.
	refusal error
}

// remote: the source's reads go to the file's owner, and the front
// keeps no copy of what they bring.
func (src fetchSource) remote() bool { return src.file%2 == 1 }

const fetchSpan = 8

var errBoom = errors.New("boom")

func failStore(fx *fetchFixture)  { fx.gs.failWith.Store(&errBoom) }
func failRemote(fx *fetchFixture) { fx.rem.refuse.Store(&errBoom) }

var fetchSources = []fetchSource{
	{name: "store", file: 4, span: 1, fail: failStore,
		fill: func(n uint64) fetchCounts {
			return fetchCounts{misses: n, storeReads: n, storeCalls: int32(n)}
		}},
	{name: "ownerHit", file: 7, span: fetchSpan, memory: true, fail: failRemote,
		fill: func(n uint64) fetchCounts {
			return fetchCounts{remoteReads: n, remoteHits: n, fetchCalls: 1}
		}},
	{name: "ownerMiss", file: 7, arm: func(r *fakeRemote) { r.miss.Store(true) }, span: fetchSpan, fail: failRemote,
		fill: func(n uint64) fetchCounts {
			return fetchCounts{remoteReads: n, fetchCalls: 1}
		}},
	{name: "ownerDown", file: 7, arm: func(r *fakeRemote) { r.down.Store(true) }, span: fetchSpan, fail: failStore,
		refusal: ErrOwnerUnreachable,
		fill: func(uint64) fetchCounts {
			return fetchCounts{fallbacks: 1, fetchCalls: 1}
		}},
}

// fetchFixture is one engine wired to a gateable store and a gateable
// fake owner.
type fetchFixture struct {
	t   *testing.T
	e   *Engine
	gs  *gateStore
	rem *fakeRemote
	src fetchSource
}

func newFetchFixture(t *testing.T, src fetchSource) *fetchFixture {
	gs := newGateStore(NewMemStore(512, 0), 0) // gated until Release
	rem := &fakeRemote{}
	if src.arm != nil {
		src.arm(rem)
	}
	e := newTestEngine(t, Config{Alg: core.SpecNP, Store: gs, Remote: rem, PoisonBufs: true})
	return &fetchFixture{t: t, e: e, gs: gs, rem: rem, src: src}
}

func (fx *fetchFixture) counts() fetchCounts {
	s := fx.e.Snapshot()
	return fetchCounts{
		s.DemandHits, s.DemandMisses, s.PrefetchTimely, s.PrefetchLate,
		s.StoreReads, s.RemoteReads, s.RemoteHits, s.RemoteFallbacks,
		fx.gs.calls.Load(), fx.rem.fetchCalls.Load(),
	}
}

// read is ReadInto plus a byte check against the fill pattern.
func (fx *fetchFixture) read(off blockdev.BlockNo, n int32) (bool, error) {
	bufs, hit, err := fx.e.ReadInto(nil, fx.src.file, off, n)
	want := make([]byte, fx.e.BlockSize())
	for i, buf := range bufs {
		FillPattern(blockdev.BlockID{File: fx.src.file, Block: off + blockdev.BlockNo(i)}, want)
		if !bytes.Equal(buf.Bytes(), want) {
			fx.t.Errorf("block %d: wrong bytes", off+blockdev.BlockNo(i))
		}
		buf.Release()
	}
	return hit, err
}

// served reports whether err is what a read from the source returns:
// nil, or the refusal of an owner that could not be reached.
func (fx *fetchFixture) served(err error) bool { return errors.Is(err, fx.src.refusal) }

// mustRead is read that fails the test on any error but the source's
// refusal.
func (fx *fetchFixture) mustRead(off blockdev.BlockNo, n int32) bool {
	hit, err := fx.read(off, n)
	if !fx.served(err) {
		fx.t.Fatalf("read: err=%v, want %v", err, fx.src.refusal)
	}
	return hit
}

// gateSource holds the source's fetches open: entered blocks until a
// fetch is inside the source, open lets it (and every later one) go.
func (fx *fetchFixture) gateSource() (entered func(), open func()) {
	if !fx.src.remote() {
		return func() { <-fx.gs.started }, fx.gs.Release
	}
	fx.gs.Release()
	gate := make(chan struct{})
	fx.rem.gate, fx.rem.entered = gate, make(chan struct{}, 64)
	return func() { <-fx.rem.entered }, func() { close(gate) }
}

// pile starts one reader of the source's whole span, waits until its
// fetch is inside the (gated) source, piles joiners readers of the
// span's last block onto it, opens the gate, and returns every
// reader's outcome (the claiming reader's first). A local fetch is
// joined; a remote read joins nothing here, so every reader must be
// inside the owner's FetchSpan before the gate opens.
func (fx *fetchFixture) pile(joiners int) (hits []bool, errs []error) {
	entered, open := fx.gateSource()
	hits, errs = make([]bool, 1+joiners), make([]error, 1+joiners)
	last := blockdev.BlockNo(fx.src.span - 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		hits[0], errs[0] = fx.read(0, fx.src.span)
	}()
	entered()
	for j := 1; j <= joiners; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			hits[j], errs[j] = fx.read(last, 1)
		}(j)
	}
	if fx.src.remote() {
		for j := 0; j < joiners; j++ {
			entered()
		}
	} else {
		// The fetch's one op is registered under its block.
		waitFor(fx.t, "joiners to pile onto the in-flight fetch", func() bool {
			fx.e.flightMu.Lock()
			defer fx.e.flightMu.Unlock()
			fo := fx.e.inflight[blockdev.BlockID{File: fx.src.file, Block: last}]
			return fo != nil && int(fo.refs.Load()) == 1+joiners
		})
	}
	open()
	wg.Wait()
	return hits, errs
}

func (fx *fetchFixture) inflightLen() int {
	fx.e.flightMu.Lock()
	defer fx.e.flightMu.Unlock()
	return len(fx.e.inflight)
}

// TestFetchPath drives the engine's two demand-read paths from every
// source a block can come from, in every state a demand read can find
// the block in on this node, and checks the hit flag and every counter
// the path moves. A local read's contract is singleflight: exactly one
// store call per claimed block, joined by every concurrent reader. A
// read of a file owned elsewhere ignores every local state: it is
// exactly one FetchSpan per read, whatever this node holds or has in
// flight, and it leaves this node's cache as it found it.
func TestFetchPath(t *testing.T) {
	const joiners = 3
	arrivals := []struct {
		name string
		// cached is how many blocks from 0 the row leaves cached: what
		// the local reads brought, or, for a remote source, what the row
		// staged.
		cached func(src fetchSource) int32
		// run stages the state, performs the read(s) and returns the
		// read's hit flag with the expected flag and counters.
		run func(fx *fetchFixture) (hit, wantHit bool, want fetchCounts)
	}{
		{"cold", func(src fetchSource) int32 { return local(src, fetchSpan) }, func(fx *fetchFixture) (bool, bool, fetchCounts) {
			fx.gs.Release()
			hit := fx.mustRead(0, fetchSpan)
			// One source call per source unit: 8 for the store, 1 span RPC
			// for the owner — its predictor must see the real request.
			want := fetchCounts{}
			for i := int32(0); i < fetchSpan; i += fx.src.span {
				want = want.plus(fx.src.fill(uint64(fx.src.span)))
			}
			return hit, fx.src.memory, want
		}},
		{"resident", func(fetchSource) int32 { return fetchSpan }, func(fx *fetchFixture) (bool, bool, fetchCounts) {
			fx.gs.Release()
			fx.e.Preload(fx.src.file, 0, fetchSpan, false)
			hit := fx.mustRead(0, fetchSpan)
			if fx.src.remote() {
				// A copy here of a block owned elsewhere is never read.
				return hit, fx.src.memory, fx.src.fill(fetchSpan)
			}
			return hit, true, fetchCounts{hits: fetchSpan}
		}},
		{"residentPrefetched", func(fetchSource) int32 { return fetchSpan }, func(fx *fetchFixture) (bool, bool, fetchCounts) {
			fx.gs.Release()
			fx.e.Preload(fx.src.file, 0, fetchSpan, true)
			hit := fx.mustRead(0, fetchSpan)
			unused := fx.e.Snapshot().PrefetchUnused
			if fx.src.remote() {
				if unused != fetchSpan {
					t.Errorf("%d blocks still flagged, want %d: a remote read touched this node's copies", unused, fetchSpan)
				}
				return hit, fx.src.memory, fx.src.fill(fetchSpan)
			}
			if unused != 0 {
				t.Errorf("%d blocks still flagged after their first touch", unused)
			}
			return hit, true, fetchCounts{hits: fetchSpan, timely: fetchSpan}
		}},
		{"joinsDemandFill", func(src fetchSource) int32 { return local(src, src.span) }, func(fx *fetchFixture) (bool, bool, fetchCounts) {
			hits, errs := fx.pile(joiners)
			for i, err := range errs {
				if !fx.served(err) {
					t.Fatalf("reader %d: err=%v, want %v", i, err, fx.src.refusal)
				}
			}
			if hits[0] != fx.src.memory {
				t.Errorf("claiming reader: hit=%v, want %v", hits[0], fx.src.memory)
			}
			for _, h := range hits[2:] {
				if h != hits[1] {
					t.Errorf("joiners disagree on the hit flag: %v", hits[1:])
				}
			}
			want := fx.src.fill(uint64(fx.src.span))
			if fx.src.remote() {
				// Every reader reached the owner, whose own fetch path is
				// where concurrent reads of a block meet.
				for j := 0; j < joiners; j++ {
					want = want.plus(fx.src.fill(1))
				}
				return hits[1], fx.src.memory, want
			}
			// A joiner waited: a miss.
			return hits[1], false, want.plus(fetchCounts{misses: joiners})
		}},
		{"joinsSpeculativeFill", func(fetchSource) int32 { return 1 }, func(fx *fetchFixture) (bool, bool, fetchCounts) {
			// A prefetch of block 0 stuck inside the store. A local demand
			// joins it; a remote one goes to the owner past it.
			fl := fx.e.fileState(fx.src.file)
			fx.e.pfq <- prefetchOp{
				b:         blockdev.BlockID{File: fx.src.file, Block: 0},
				fl:        fl,
				cancelled: func() bool { return false },
				done:      func() {},
			}
			<-fx.gs.started
			done := make(chan bool, 1)
			go func() {
				hit, err := fx.read(0, 1)
				if !fx.served(err) {
					t.Errorf("late read: err=%v, want %v", err, fx.src.refusal)
				}
				done <- hit
			}()
			if fx.src.remote() {
				// The read goes to the owner without looking at the fetch
				// in flight here.
				waitFor(t, "the read to reach the owner", func() bool { return fx.rem.fetchCalls.Load() == 1 })
			} else {
				waitFor(t, "late classification", func() bool { return fx.e.Snapshot().PrefetchLate == 1 })
			}
			fx.gs.Release()
			hit := <-done
			waitFor(t, "prefetch completion", func() bool { return fx.e.Snapshot().PrefetchCompleted == 1 })
			prefetch := fetchCounts{storeReads: 1, storeCalls: 1}
			if fx.src.remote() {
				return hit, fx.src.memory, fx.src.fill(1).plus(prefetch)
			}
			// Late, not timely; and the block went through the store once
			// although a prefetch and a demand both wanted it.
			return hit, false, prefetch.plus(fetchCounts{misses: 1, late: 1})
		}},
	}
	for _, src := range fetchSources {
		for _, arr := range arrivals {
			src, arr := src, arr
			t.Run(src.name+"/"+arr.name, func(t *testing.T) {
				fx := newFetchFixture(t, src)
				hit, wantHit, want := arr.run(fx)
				if hit != wantHit {
					t.Errorf("hit=%v, want %v", hit, wantHit)
				}
				if got := fx.counts(); got != want {
					t.Errorf("counters\n got %+v\nwant %+v", got, want)
				}
				if n := fx.inflightLen(); n != 0 {
					t.Errorf("%d blocks still registered in flight", n)
				}
				cached := arr.cached(src)
				if got := fx.e.Snapshot().CachedBlocks; got != int(cached) {
					t.Errorf("%d blocks cached, want %d", got, cached)
				}
				if src.remote() {
					// Reading again goes to the owner again, one FetchSpan,
					// and still caches nothing here.
					if hit, err := fx.read(0, fetchSpan); !fx.served(err) || hit != src.memory {
						t.Errorf("re-read: hit=%v err=%v, want hit=%v err=%v", hit, err, src.memory, src.refusal)
					}
					want = want.plus(src.fill(fetchSpan))
					if got := fx.counts(); got != want {
						t.Errorf("re-read:\n got %+v\nwant %+v", got, want)
					}
					if got := fx.e.Snapshot().CachedBlocks; got != int(cached) {
						t.Errorf("re-read: %d blocks cached, want still %d", got, cached)
					}
					fx.checkNoLeak()
					return
				}
				// Everything read is cached now: reading it again is a pure
				// hit that asks no source for anything.
				if hit, err := fx.read(0, cached); err != nil || !hit {
					t.Errorf("re-read: hit=%v err=%v", hit, err)
				}
				want = want.plus(fetchCounts{hits: uint64(cached)})
				if got := fx.counts(); got != want {
					t.Errorf("re-read moved more than demand_hits:\n got %+v\nwant %+v", got, want)
				}
				fx.checkNoLeak()
			})
		}
	}
}

// local is n for a source read into this node's cache, 0 for a remote
// one: this node keeps no copy of a block it does not own.
func local(src fetchSource, n int32) int32 {
	if src.remote() {
		return 0
	}
	return n
}

// TestFetchPathError fails each source under a read with others piled
// on it: every reader gets the error, nothing is cached or left
// registered, and not one buffer of the reads leaks. A source that
// refuses every read fails with its refusal, whatever else fails.
func TestFetchPathError(t *testing.T) {
	for _, src := range fetchSources {
		src := src
		t.Run(src.name, func(t *testing.T) {
			fx := newFetchFixture(t, src)
			src.fail(fx)
			want := errBoom
			if src.refusal != nil {
				want = src.refusal
			}
			_, errs := fx.pile(3)
			for i, err := range errs {
				if !errors.Is(err, want) {
					t.Errorf("reader %d: err=%v, want %v", i, err, want)
				}
			}
			if n := fx.inflightLen(); n != 0 {
				t.Errorf("%d blocks still registered in flight", n)
			}
			if s := fx.e.Snapshot(); s.CachedBlocks != 0 || s.StoreReads != 0 || s.RemoteReads != 0 {
				t.Errorf("failed fill published something: cached=%d store_reads=%d remote_reads=%d",
					s.CachedBlocks, s.StoreReads, s.RemoteReads)
			}
			fx.checkNoLeak()
		})
	}
}

// checkNoLeak stops the engine, empties its cache and fails the test
// unless every buffer the reads took is back in the pool.
func (fx *fetchFixture) checkNoLeak() {
	fx.e.Shutdown()
	fx.e.DrainCache()
	if live := fx.e.BufLive(); live != 0 {
		fx.t.Errorf("%d buffers still live: a read path leaks run buffers", live)
	}
}
