package lapcache

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/wire"
)

// fakeRemote is an in-process RemoteFetcher: files with even IDs are
// owned locally, odd IDs belong to a fictitious owner whose spans are
// served by FillPattern. A gate can hold a read's Forward open so
// tests can pile concurrent reads into it.
type fakeRemote struct {
	fetchCalls atomic.Int32
	writeCalls atomic.Int32
	closeCalls atomic.Int32
	down       atomic.Bool           // the owner is unreachable: every forward fails
	miss       atomic.Bool           // the owner serves spans from its disk, not its memory
	refuse     atomic.Pointer[error] // the owner is reached and refuses every span

	mu      sync.Mutex
	last    wire.Header   // the latest Forward's header
	gate    chan struct{} // non-nil: a read's Forward blocks until closed
	entered chan struct{} // signalled once per read's Forward entry
}

func (r *fakeRemote) Owned(f blockdev.FileID) bool { return f%2 == 0 }

func (r *fakeRemote) Members() []string { return []string{"even:1", "odd:1"} }

func (r *fakeRemote) Forward(h wire.Header, payload []byte, dsts [][]byte) (wire.Header, error) {
	r.mu.Lock()
	r.last = h
	gate, entered := r.gate, r.entered
	r.mu.Unlock()
	switch h.Op {
	case wire.OpWrite:
		r.writeCalls.Add(1)
		return wire.Header{Op: h.Op, Flags: wire.FlagOK}, r.reach()
	case wire.OpClose:
		r.closeCalls.Add(1)
		return wire.Header{Op: h.Op, Flags: wire.FlagOK}, r.reach()
	}
	r.fetchCalls.Add(1)
	if entered != nil {
		entered <- struct{}{}
	}
	if gate != nil {
		<-gate
	}
	if err := r.reach(); err != nil {
		return wire.Header{}, err
	}
	if err := r.refuse.Load(); err != nil {
		return wire.Header{}, *err
	}
	for i, d := range dsts {
		FillPattern(blockdev.BlockID{File: blockdev.FileID(h.File), Block: blockdev.BlockNo(h.Offset + int32(i))}, d)
	}
	flags := wire.FlagOK
	if !r.miss.Load() {
		flags |= wire.FlagHit
	}
	return wire.Header{Op: h.Op, Flags: flags}, nil
}

// lastForward returns the header the latest Forward carried.
func (r *fakeRemote) lastForward() wire.Header {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.last
}

// reach is what trying to reach the owner returns.
func (r *fakeRemote) reach() error {
	if r.down.Load() {
		return ErrOwnerUnreachable
	}
	return nil
}

// withRemote is startTestServer's tune function that makes the server
// a cluster member whose peer tier is rem.
func withRemote(rem *fakeRemote) func(*Server) {
	return func(s *Server) { s.Remote = rem }
}

// TestRemoteForwardWriteAndClose checks, over the wire, the owner-bound
// write path (relayed, nothing kept here) and the close relay, and that
// both fail when the owner is unreachable.
func TestRemoteForwardWriteAndClose(t *testing.T) {
	rem := &fakeRemote{}
	srv, addr := startTestServer(t, Config{Alg: core.SpecNP, BlockSize: 512, CacheBlocks: 128}, withRemote(rem))
	e := srv.e
	c := dialRaw(t, addr)
	var seq uint32
	send := func(op wire.Op, f blockdev.FileID, off, n int32) (wire.Header, error) {
		seq++
		flags := wire.Flags(0)
		if op == wire.OpRead {
			flags = wire.FlagWantData
		}
		return c.call(t, wire.Header{Op: op, Flags: flags, Seq: seq, File: int32(f), Offset: off, Size: n}, nil)
	}

	if _, err := send(wire.OpWrite, 3, 4, 2); err != nil {
		t.Fatalf("forwarded write: %v", err)
	}
	if got := rem.writeCalls.Load(); got != 1 {
		t.Errorf("write forwarded %d times, want 1", got)
	}
	s := e.Snapshot()
	if s.ForwardedWrites != 1 || s.StoreWrites != 0 || s.CachedBlocks != 0 {
		t.Errorf("forwarded write: forwarded=%d local=%d cached=%d, want 1/0/0",
			s.ForwardedWrites, s.StoreWrites, s.CachedBlocks)
	}
	// The owner holds the one copy: a read after the write goes there.
	if h, err := send(wire.OpRead, 3, 4, 2); err != nil || h.Flags&wire.FlagHit == 0 {
		t.Fatalf("read-after-forwarded-write: flags=%#x err=%v", uint8(h.Flags), err)
	}
	if got := rem.fetchCalls.Load(); got != 1 {
		t.Errorf("read after a forwarded write made %d fetches, want 1", got)
	}

	if _, err := send(wire.OpClose, 3, 0, 0); err != nil {
		t.Fatalf("forwarded close: %v", err)
	}
	if got := rem.closeCalls.Load(); got != 1 {
		t.Errorf("close forwarded %d times, want 1", got)
	}
	if _, err := send(wire.OpClose, 2, 0, 0); err != nil { // owned: no relay
		t.Fatalf("owned close: %v", err)
	}
	if got := rem.closeCalls.Load(); got != 1 {
		t.Errorf("owned close relayed (%d calls)", got)
	}

	// With the owner unreachable the write is refused: nothing lands in
	// this node's store or cache, and it is not acknowledged.
	rem.down.Store(true)
	if _, err := send(wire.OpWrite, 5, 0, 2); !sameErr(err, ErrOwnerUnreachable) {
		t.Fatalf("write with the owner down: err=%v, want %v", err, ErrOwnerUnreachable)
	}
	s = e.Snapshot()
	if s.RemoteFallbacks != 1 || s.StoreWrites != 0 || s.ForwardedWrites != 1 || s.Writes != 1 || s.CachedBlocks != 0 {
		t.Errorf("refused write: fallbacks=%d local=%d forwarded=%d writes=%d cached=%d, want 1/0/1/1/0",
			s.RemoteFallbacks, s.StoreWrites, s.ForwardedWrites, s.Writes, s.CachedBlocks)
	}
	if _, err := send(wire.OpClose, 5, 0, 0); !sameErr(err, ErrOwnerUnreachable) {
		t.Fatalf("close with the owner down: err=%v, want %v", err, ErrOwnerUnreachable)
	}
	if got := e.Snapshot().RemoteFallbacks; got != 2 {
		t.Errorf("refused close: fallbacks=%d, want 2", got)
	}
}

// sameErr reports whether err says what want says: an error frame
// carries its error's text, not its identity. A nil want is no error.
func sameErr(err, want error) bool {
	if want == nil {
		return err == nil
	}
	return err != nil && err.Error() == want.Error()
}
