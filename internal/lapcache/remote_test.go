package lapcache

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/core"
)

// fakeRemote is an in-process RemoteFetcher: files with even IDs are
// owned locally, odd IDs belong to a fictitious peer whose spans are
// served by FillPattern. A gate can hold FetchSpan open so tests can
// pile concurrent reads into it.
type fakeRemote struct {
	fetchCalls atomic.Int32
	writeCalls atomic.Int32
	closeCalls atomic.Int32
	down       atomic.Bool           // every forward reports no live owner
	miss       atomic.Bool           // the owner serves spans from its disk, not its memory
	refuse     atomic.Pointer[error] // the owner is reached and refuses every span

	mu      sync.Mutex
	gate    chan struct{} // non-nil: FetchSpan blocks until closed
	entered chan struct{} // signalled once per FetchSpan entry
}

func (r *fakeRemote) Owned(f blockdev.FileID) bool { return f%2 == 0 }

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
	if err := r.refuse.Load(); err != nil {
		return false, true, *err
	}
	for i := int32(0); i < nblocks; i++ {
		FillPattern(blockdev.BlockID{File: f, Block: off + blockdev.BlockNo(i)}, dsts[i])
	}
	return !r.miss.Load(), true, nil
}

func (r *fakeRemote) ForwardWrite(f blockdev.FileID, off blockdev.BlockNo, nblocks int32, data []byte) (bool, error) {
	r.writeCalls.Add(1)
	return !r.down.Load(), nil
}

func (r *fakeRemote) ForwardClose(f blockdev.FileID) (bool, error) {
	r.closeCalls.Add(1)
	return !r.down.Load(), nil
}

// TestRemoteForwardWriteAndClose checks the owner-bound write path
// (forwarded, nothing kept here) and the best-effort close relay.
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
	if s.ForwardedWrites != 1 || s.StoreWrites != 0 || s.CachedBlocks != 0 {
		t.Errorf("forwarded write: forwarded=%d local=%d cached=%d, want 1/0/0",
			s.ForwardedWrites, s.StoreWrites, s.CachedBlocks)
	}
	// The owner holds the one copy: a read after the write goes there.
	bufs, hit, err := e.ReadInto(nil, 3, 4, 2)
	if err != nil || !hit {
		t.Fatalf("read-after-forwarded-write: hit=%v err=%v", hit, err)
	}
	for _, buf := range bufs {
		buf.Release()
	}
	if got := rem.fetchCalls.Load(); got != 1 {
		t.Errorf("read after a forwarded write made %d fetches, want 1", got)
	}

	e.closeFile(3, modeClient)
	if got := rem.closeCalls.Load(); got != 1 {
		t.Errorf("ForwardClose called %d times, want 1", got)
	}
	e.closeFile(2, modeClient) // owned: no relay
	if got := rem.closeCalls.Load(); got != 1 {
		t.Errorf("owned close relayed (%d calls)", got)
	}

	// With no live owner the write lands in the local store instead,
	// and still not in the cache.
	rem.down.Store(true)
	if err := e.Write(5, 0, 2, nil); err != nil {
		t.Fatalf("degraded write: %v", err)
	}
	s = e.Snapshot()
	if s.RemoteFallbacks != 1 || s.StoreWrites != 2 || s.ForwardedWrites != 1 || s.CachedBlocks != 0 {
		t.Errorf("degraded write: fallbacks=%d local=%d forwarded=%d cached=%d, want 1/2/1/0",
			s.RemoteFallbacks, s.StoreWrites, s.ForwardedWrites, s.CachedBlocks)
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
