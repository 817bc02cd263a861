package lapcache

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/core"
)

// fakeRemote is an in-process RemoteFetcher: files with even IDs are
// owned locally, odd IDs belong to a fictitious peer whose spans are
// served by FillPattern. A gate can hold FetchSpan open so tests can
// pile concurrent misses onto one in-flight forward.
type fakeRemote struct {
	fetchCalls atomic.Int32
	writeCalls atomic.Int32
	closeCalls atomic.Int32
	replCalls  atomic.Int32
	down       atomic.Bool // every forward reports no live owner

	mu      sync.Mutex
	gate    chan struct{} // non-nil: FetchSpan blocks until closed
	entered chan struct{} // signalled once per FetchSpan entry
}

func (r *fakeRemote) Owned(f blockdev.FileID) bool { return f%2 == 0 }

func (r *fakeRemote) Epoch() uint64 { return 1 }

func (r *fakeRemote) FetchSpan(f blockdev.FileID, off blockdev.BlockNo, nblocks int32, dsts [][]byte) (hit, ok bool, err error) {
	r.fetchCalls.Add(1)
	r.mu.Lock()
	gate, entered := r.gate, r.entered
	r.mu.Unlock()
	if entered != nil {
		entered <- struct{}{}
	}
	if gate != nil {
		<-gate
	}
	if r.down.Load() {
		return false, false, nil
	}
	for i := int32(0); i < nblocks; i++ {
		FillPattern(blockdev.BlockID{File: f, Block: off + blockdev.BlockNo(i)}, dsts[i])
	}
	return true, true, nil
}

func (r *fakeRemote) ForwardWrite(f blockdev.FileID, off blockdev.BlockNo, nblocks int32, data []byte) (ok, replicated bool, err error) {
	r.writeCalls.Add(1)
	return !r.down.Load(), false, nil
}

func (r *fakeRemote) ReplicateWrite(f blockdev.FileID, off blockdev.BlockNo, nblocks int32, data []byte) bool {
	r.replCalls.Add(1)
	return false
}

func (r *fakeRemote) ForwardClose(f blockdev.FileID) (bool, error) {
	r.closeCalls.Add(1)
	return !r.down.Load(), nil
}

// TestRemoteSingleflight piles concurrent demand misses for one block
// of a non-owned file onto the engine and asserts the forward path
// collapses them into a single peer RPC, with every reader getting the
// block's bytes.
func TestRemoteSingleflight(t *testing.T) {
	rem := &fakeRemote{
		gate:    make(chan struct{}),
		entered: make(chan struct{}, 64),
	}
	e := newTestEngine(t, Config{Alg: core.SpecNP, Remote: rem, PoisonBufs: true})

	const readers = 16
	b := blockdev.BlockID{File: 7, Block: 3} // odd file: not owned
	want := make([]byte, e.BlockSize())
	FillPattern(b, want)

	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bufs, _, err := e.ReadInto(nil, b.File, b.Block, 1)
			if err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(bufs[0].Bytes(), want) {
				t.Error("remote block bytes mangled")
			}
			bufs[0].Release()
		}()
	}

	<-rem.entered // one fetch is in flight; the rest must join it
	waitFor(t, "readers to pile onto the in-flight fetch", func() bool {
		e.flightMu.Lock()
		fo := e.inflight[b]
		e.flightMu.Unlock()
		return fo != nil && fo.refs.Load() >= 2
	})
	close(rem.gate)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("ReadInto: %v", err)
	}

	if got := rem.fetchCalls.Load(); got != 1 {
		t.Errorf("FetchSpan called %d times for one block, want 1 (singleflight)", got)
	}
	s := e.Snapshot()
	if s.RemoteReads != 1 || s.RemoteHits != 1 {
		t.Errorf("remote counters: reads=%d hits=%d, want 1/1", s.RemoteReads, s.RemoteHits)
	}
	if s.StoreReads != 0 {
		t.Errorf("forwarded miss touched the local store %d times", s.StoreReads)
	}
	// The block is now cached locally: the next read must not forward.
	bufs, hit, err := e.ReadInto(nil, b.File, b.Block, 1)
	if err != nil || !hit {
		t.Fatalf("re-read: hit=%v err=%v", hit, err)
	}
	bufs[0].Release()
	if got := rem.fetchCalls.Load(); got != 1 {
		t.Errorf("cached re-read forwarded again (%d calls)", got)
	}
}

// TestRemoteSpanRun asserts a multi-block miss of a non-owned file
// travels as one span RPC, not per-block chatter — the owner's
// predictor models (offset, size) pairs and must see the real request.
func TestRemoteSpanRun(t *testing.T) {
	rem := &fakeRemote{}
	e := newTestEngine(t, Config{Alg: core.SpecNP, Remote: rem})

	bufs, _, err := e.ReadInto(nil, 9, 10, 8)
	if err != nil {
		t.Fatalf("ReadInto: %v", err)
	}
	for i, buf := range bufs {
		want := make([]byte, e.BlockSize())
		FillPattern(blockdev.BlockID{File: 9, Block: 10 + blockdev.BlockNo(i)}, want)
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("block %d bytes wrong", i)
		}
		buf.Release()
	}
	if got := rem.fetchCalls.Load(); got != 1 {
		t.Errorf("8-block span took %d RPCs, want 1", got)
	}
	if s := e.Snapshot(); s.RemoteReads != 8 {
		t.Errorf("RemoteReads = %d, want 8", s.RemoteReads)
	}
}

// TestRemoteDegradeToLocalStore kills the fake owner and asserts reads
// and writes of its files fall back to the local backing store —
// latency, not availability.
func TestRemoteDegradeToLocalStore(t *testing.T) {
	rem := &fakeRemote{}
	rem.down.Store(true)
	store := NewMemStore(512, 0)
	e := newTestEngine(t, Config{Alg: core.SpecNP, Remote: rem, Store: store})

	if err := e.Write(5, 0, 2, nil); err != nil {
		t.Fatalf("degraded write: %v", err)
	}
	bufs, _, err := e.ReadInto(nil, 5, 2, 2) // past the written blocks: store read
	if err != nil {
		t.Fatalf("degraded read: %v", err)
	}
	for _, buf := range bufs {
		buf.Release()
	}
	s := e.Snapshot()
	if s.RemoteFallbacks == 0 {
		t.Error("no remote fallbacks counted with the owner down")
	}
	if s.StoreReads == 0 || s.StoreWrites == 0 {
		t.Errorf("local store not used: reads=%d writes=%d", s.StoreReads, s.StoreWrites)
	}
	if s.RemoteReads != 0 || s.ForwardedWrites != 0 {
		t.Errorf("remote traffic counted against a dead owner: reads=%d writes=%d",
			s.RemoteReads, s.ForwardedWrites)
	}
}

// TestRemoteForwardWriteAndClose checks the owner-bound write path
// (forward + local write-through copies) and the best-effort close
// relay.
func TestRemoteForwardWriteAndClose(t *testing.T) {
	rem := &fakeRemote{}
	e := newTestEngine(t, Config{Alg: core.SpecNP, Remote: rem})

	if err := e.Write(3, 4, 2, nil); err != nil {
		t.Fatalf("forwarded write: %v", err)
	}
	if got := rem.writeCalls.Load(); got != 1 {
		t.Errorf("ForwardWrite called %d times, want 1", got)
	}
	s := e.Snapshot()
	if s.ForwardedWrites != 1 || s.StoreWrites != 0 {
		t.Errorf("forwarded write: forwarded=%d local=%d, want 1/0", s.ForwardedWrites, s.StoreWrites)
	}
	// Write-through copies make the blocks local hits.
	bufs, hit, err := e.ReadInto(nil, 3, 4, 2)
	if err != nil || !hit {
		t.Fatalf("read-after-forwarded-write: hit=%v err=%v", hit, err)
	}
	for _, buf := range bufs {
		buf.Release()
	}
	if got := rem.fetchCalls.Load(); got != 0 {
		t.Errorf("read after write-through forwarded anyway (%d fetches)", got)
	}

	e.CloseFile(3)
	if got := rem.closeCalls.Load(); got != 1 {
		t.Errorf("ForwardClose called %d times, want 1", got)
	}
	e.CloseFile(2) // owned: no relay
	if got := rem.closeCalls.Load(); got != 1 {
		t.Errorf("owned close relayed (%d calls)", got)
	}
}

// TestRemoteDriverGating asserts a clustered engine only creates chain
// drivers for files it owns: the per-file prefetch server exists on
// exactly one node, which is what makes linearity hold cluster-wide.
func TestRemoteDriverGating(t *testing.T) {
	rem := &fakeRemote{}
	e := newTestEngine(t, Config{Alg: core.SpecLnAgrISPPM3, Remote: rem, StrictLinear: true})

	// Driver creation is lazy: probe through the same path the demand
	// and close paths use.
	probe := func(f blockdev.FileID) *core.Driver {
		fl := e.fileState(f)
		fl.mu.Lock()
		defer fl.mu.Unlock()
		return e.driverLocked(f, fl)
	}
	if probe(4) == nil {
		t.Error("owned file got no driver")
	}
	if probe(5) != nil {
		t.Error("non-owned file got a driver: two nodes could prefetch it")
	}
}
