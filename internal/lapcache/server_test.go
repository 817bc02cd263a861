package lapcache

import (
	"bufio"
	"bytes"
	"errors"
	"math"
	"net"
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/wire"
)

// startTestServer brings up an engine + server on a loopback port.
// The lapclient package has its own end-to-end tests; these talk
// frames raw to pin server behaviour without the import cycle.
func startTestServer(t *testing.T, cfg Config, tune func(*Server)) (*Server, string) {
	t.Helper()
	if cfg.Store == nil {
		cfg.Store = NewMemStore(cfg.BlockSize, 0)
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	srv := NewServer(e)
	if tune != nil {
		tune(srv)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		srv.Close()
		e.Shutdown()
	})
	return srv, ln.Addr().String()
}

// rawConn speaks frames on a bare TCP connection.
type rawConn struct {
	net.Conn
	br *bufio.Reader
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { conn.Close() })
	return &rawConn{Conn: conn, br: bufio.NewReader(conn)}
}

// recv reads one response frame and checks it echoes seq.
func (c *rawConn) recv(t *testing.T, seq uint32) (wire.Header, []byte) {
	t.Helper()
	var scratch [wire.HeaderSize]byte
	h, err := wire.ReadHeader(c.br, scratch[:])
	if err != nil {
		t.Fatalf("seq %d: read response: %v", seq, err)
	}
	payload, err := wire.ReadPayload(c.br, h, nil)
	if err != nil {
		t.Fatalf("seq %d: read response payload: %v", seq, err)
	}
	if h.Seq != seq {
		t.Fatalf("response echoes seq %d, want %d", h.Seq, seq)
	}
	return h, payload
}

// call runs one request/response exchange and returns an error frame's
// message as an error.
func (c *rawConn) call(t *testing.T, h wire.Header, payload []byte) (wire.Header, error) {
	t.Helper()
	rh, msg := c.do(t, h, payload)
	if rh.Flags&wire.FlagOK == 0 {
		return rh, errors.New(string(msg))
	}
	return rh, nil
}

// frameBytes encodes one complete frame: h's header, with PayloadLen
// set to len(payload), then the payload.
func frameBytes(h wire.Header, payload []byte) []byte {
	h.PayloadLen = uint32(len(payload))
	b := make([]byte, wire.HeaderSize, wire.HeaderSize+len(payload))
	wire.PutHeader(b, h)
	return append(b, payload...)
}

// do runs one request/response exchange.
func (c *rawConn) do(t *testing.T, h wire.Header, payload []byte) (wire.Header, []byte) {
	t.Helper()
	if _, err := c.Write(frameBytes(h, payload)); err != nil {
		t.Fatalf("send %s: %v", h.Op, err)
	}
	return c.recv(t, h.Seq)
}

// checkPattern fails unless payload is nblocks fill-pattern blocks of
// f starting at off.
func checkPattern(t *testing.T, payload []byte, blockSize int, f blockdev.FileID, off blockdev.BlockNo, nblocks int) {
	t.Helper()
	if len(payload) != nblocks*blockSize {
		t.Fatalf("payload %d bytes, want %d", len(payload), nblocks*blockSize)
	}
	want := make([]byte, blockSize)
	for i := 0; i < nblocks; i++ {
		FillPattern(blockdev.BlockID{File: f, Block: off + blockdev.BlockNo(i)}, want)
		if !bytes.Equal(payload[i*blockSize:(i+1)*blockSize], want) {
			t.Fatalf("block %d arrived corrupted", i)
		}
	}
}

// TestServerLargeWantData reads 32 blocks of 8 KiB in one request: a
// 256 KiB payload, several times the connection's read and write
// buffering on both ends, must arrive as one intact frame. (The
// line-based protocol this replaces truncated exactly this read.)
func TestServerLargeWantData(t *testing.T) {
	const blockSize = 8192
	const nblocks = 32
	_, addr := startTestServer(t, Config{
		Alg: core.SpecNP, BlockSize: blockSize, CacheBlocks: 64,
	}, nil)
	c := dialRaw(t, addr)

	h, payload := c.do(t, wire.Header{Op: wire.OpRead, Flags: wire.FlagWantData, Seq: 1, File: 3, Size: nblocks}, nil)
	if h.Flags&wire.FlagOK == 0 {
		t.Fatalf("read failed: %s", payload)
	}
	checkPattern(t, payload, blockSize, 3, 0, nblocks)
}

// TestServerRefusesOversizeSpan: a span longer than one read's payload
// cap in blocks, or reaching past the last block number, gets an error
// frame whether or not it carries data, and the connection stays
// usable. Served, the data-less read would gather a buffer per block
// and the write's block numbers would wrap negative.
func TestServerRefusesOversizeSpan(t *testing.T) {
	const blockSize = 512
	_, addr := startTestServer(t, Config{
		Alg: core.SpecNP, BlockSize: blockSize, CacheBlocks: 64,
	}, nil)
	c := dialRaw(t, addr)
	overCap := int32(wire.MaxDataBytes/blockSize + 1)
	for i, h := range []wire.Header{
		{Op: wire.OpRead, File: 3, Size: overCap},
		{Op: wire.OpWrite, File: 3, Offset: math.MaxInt32, Size: 2},
		{Op: wire.OpRead, Flags: wire.FlagWantData, File: 3, Size: overCap},
	} {
		h.Seq = uint32(2*i + 1)
		if got, msg := c.do(t, h, nil); got.Flags&wire.FlagOK != 0 {
			t.Errorf("%s of %d blocks at %d was served, want an error frame", h.Op, h.Size, h.Offset)
		} else if len(msg) == 0 {
			t.Errorf("%s of %d blocks at %d: error frame carries no message", h.Op, h.Size, h.Offset)
		}
		if got, msg := c.do(t, wire.Header{Op: wire.OpPing, Seq: h.Seq + 1}, nil); got.Flags&wire.FlagOK == 0 {
			t.Fatalf("ping after refused %s failed: %s", h.Op, msg)
		}
	}
}

// TestServerIdleTimeout: with -idle-timeout armed, a connection that
// goes quiet is dropped; one that keeps talking is not.
func TestServerIdleTimeout(t *testing.T) {
	_, addr := startTestServer(t, Config{
		Alg: core.SpecNP, BlockSize: 128, CacheBlocks: 16,
	}, func(s *Server) { s.IdleTimeout = 100 * time.Millisecond })

	// An active connection outlives many idle windows.
	busy := dialRaw(t, addr)
	deadline := time.Now().Add(400 * time.Millisecond)
	for seq := uint32(1); time.Now().Before(deadline); seq++ {
		if h, msg := busy.do(t, wire.Header{Op: wire.OpPing, Seq: seq}, nil); h.Flags&wire.FlagOK == 0 {
			t.Fatalf("ping on busy conn failed: %s", msg)
		}
		time.Sleep(30 * time.Millisecond)
	}

	// A silent connection is closed by the server.
	idle := dialRaw(t, addr)
	if h, msg := idle.do(t, wire.Header{Op: wire.OpPing, Seq: 1}, nil); h.Flags&wire.FlagOK == 0 {
		t.Fatalf("ping: %s", msg)
	}
	idle.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := idle.br.ReadByte(); err == nil {
		t.Fatal("idle connection still open after the timeout")
	}
}

// TestServerCloseDrainsInFlight: Close must not cut a connection out
// from under a request that is already dispatching — the response
// still reaches the client. The gateStore (engine_test.go) holds the
// demand read in the store while Close races it.
func TestServerCloseDrainsInFlight(t *testing.T) {
	const blockSize = 256
	gate := newGateStore(NewMemStore(blockSize, 0), 0)
	srv, addr := startTestServer(t, Config{
		Alg: core.SpecNP, BlockSize: blockSize, CacheBlocks: 16, Store: gate,
	}, nil)

	c := dialRaw(t, addr)
	if _, err := c.Write(frameBytes(wire.Header{
		Op: wire.OpRead, Flags: wire.FlagWantData, Seq: 1, File: 1, Size: 1,
	}, nil)); err != nil {
		t.Fatalf("send: %v", err)
	}
	<-gate.started // the read is now in dispatch, parked in the store

	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	// Give Close time to set the connection deadlines, then let the
	// store finish. The response must still arrive intact.
	time.Sleep(50 * time.Millisecond)
	select {
	case <-closed:
		t.Fatal("Close returned while a request was still in flight")
	default:
	}
	gate.Release()

	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	h, payload := c.recv(t, 1) // fails the test if the in-flight response is lost
	if h.Flags&wire.FlagOK == 0 || len(payload) != blockSize {
		t.Fatalf("drained response wrong: flags=%#x len=%d %q", uint8(h.Flags), len(payload), payload)
	}
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after the in-flight request drained")
	}
}

// TestServerCloseNotWedgedBySlowClient: a client that stops reading
// while a large response is mid-flush cannot hold Close hostage past
// drainGrace.
func TestServerCloseNotWedgedBySlowClient(t *testing.T) {
	const blockSize = 8192
	srv, addr := startTestServer(t, Config{
		Alg: core.SpecNP, BlockSize: blockSize, CacheBlocks: 512,
	}, func(s *Server) { s.drainGrace = 200 * time.Millisecond })

	c := dialRaw(t, addr)
	// Two 8 MiB responses: far past what the socket buffers of both
	// ends can absorb, so the handler wedges in its vectored write when
	// we never read a byte.
	for seq := uint32(1); seq <= 2; seq++ {
		if _, err := c.Write(frameBytes(wire.Header{
			Op: wire.OpRead, Flags: wire.FlagWantData, Seq: seq, File: 1, Size: 1024,
		}, nil)); err != nil {
			t.Fatalf("send: %v", err)
		}
	}
	time.Sleep(200 * time.Millisecond) // let the handler hit the stalled flush

	done := make(chan struct{})
	go func() {
		srv.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close wedged behind a client that stopped reading")
	}
}

// TestServerDispatchMatrix drives the one dispatcher raw over the
// whole request surface — {client, peer} × {read, write, close} — and
// pins the contract the server alone keeps: a client's request of a
// foreign file reaches its owner as the client sent it, FlagPeer
// added; a peer's is refused with ErrNotOwner's text, never
// re-forwarded; and the engine sees neither (it holds no state for
// the file, so no driver of it runs here). A request of an owned file
// is served here and feeds its driver, whoever sent it. fakeRemote
// (remote_test.go) owns the even files and counts every forward. The
// last rows pin the relay's edges: a data-less read stays data-less, a
// span the engine refuses never leaves the front, and an unreachable
// owner is an error frame with ErrOwnerUnreachable's text.
func TestServerDispatchMatrix(t *testing.T) {
	const (
		blockSize = 512
		owned     = blockdev.FileID(4)
		foreign   = blockdev.FileID(5)
	)
	rem := &fakeRemote{}
	srv, addr := startTestServer(t, Config{
		Alg: core.SpecLnAgrOBA, BlockSize: blockSize, CacheBlocks: 64,
	}, withRemote(rem))
	e := srv.e
	c := dialRaw(t, addr)

	forwards := func() int32 {
		return rem.fetchCalls.Load() + rem.writeCalls.Load() + rem.closeCalls.Load()
	}
	fed := func() core.Tick { // requests the owned file's driver has seen
		fl := e.fileState(owned)
		fl.mu.Lock()
		defer fl.mu.Unlock()
		return fl.tick
	}
	tracked := func(f blockdev.FileID) bool { // the engine holds state for f
		e.filesMu.RLock()
		defer e.filesMu.RUnlock()
		return e.files[f] != nil
	}
	var seq uint32
	// send issues op on two blocks of f and returns the response.
	send := func(t *testing.T, op wire.Op, flags wire.Flags, f blockdev.FileID, off int32) (wire.Header, []byte) {
		seq++
		h := wire.Header{Op: op, Flags: flags, Seq: seq, File: int32(f), Offset: off}
		if op != wire.OpClose {
			h.Size = 2
		}
		if op == wire.OpRead {
			h.Flags |= wire.FlagWantData
		}
		return c.do(t, h, nil)
	}
	// sendErr is send with an error frame's message as the error.
	sendErr := func(t *testing.T, op wire.Op, f blockdev.FileID, off int32) (wire.Header, error) {
		h, payload := send(t, op, 0, f, off)
		if h.Flags&wire.FlagOK == 0 {
			return h, errors.New(string(payload))
		}
		return h, nil
	}

	off := int32(0) // fresh blocks per cell, so no cell is served from another's leftovers
	for _, mode := range []struct {
		name  string
		flags wire.Flags
		peer  bool // requests for a foreign file are refused, not forwarded
	}{
		{"client", 0, false},
		{"peer", wire.FlagPeer, true},
	} {
		for _, op := range []wire.Op{wire.OpRead, wire.OpWrite, wire.OpClose} {
			t.Run(mode.name+"/"+op.String(), func(t *testing.T) {
				off += 8
				before, refused := forwards(), e.Snapshot().PeerRefused
				h, payload := send(t, op, mode.flags, foreign, off)
				wantForwards := int32(1)
				if mode.peer {
					wantForwards = 0
					if h.Flags&wire.FlagOK != 0 || string(payload) != ErrNotOwner.Error() {
						t.Errorf("foreign file: flags %#x, payload %q; want refused with %q", uint8(h.Flags), payload, ErrNotOwner)
					}
					if got := e.Snapshot().PeerRefused - refused; got != 1 {
						t.Errorf("foreign file: %d refusals counted, want 1", got)
					}
				} else {
					if h.Flags&wire.FlagOK == 0 {
						t.Fatalf("foreign file: refused: %s", payload)
					}
					if op == wire.OpRead {
						checkPattern(t, payload, blockSize, foreign, blockdev.BlockNo(off), 2)
					}
					if fh := rem.lastForward(); fh.Op != op || fh.Flags != matrixFlags(op)|wire.FlagPeer || fh.Offset != off {
						t.Errorf("foreign file: the owner got %s flags %#x at %d, want the client's %s flags %#x at %d",
							fh.Op, uint8(fh.Flags), fh.Offset, op, uint8(matrixFlags(op)|wire.FlagPeer), off)
					}
				}
				if got := forwards() - before; got != wantForwards {
					t.Errorf("foreign file: %d forwards, want %d", got, wantForwards)
				}
				if tracked(foreign) {
					t.Error("foreign file: the engine holds state for it")
				}

				before, ticks, snap := forwards(), fed(), e.Snapshot()
				h, payload = send(t, op, mode.flags, owned, off)
				if h.Flags&wire.FlagOK == 0 {
					t.Fatalf("owned file: refused: %s", payload)
				}
				if got := forwards() - before; got != 0 {
					t.Errorf("owned file: %d forwards, want 0", got)
				}
				wantFed := core.Tick(0)
				if op != wire.OpClose {
					wantFed = 1
				}
				if got := fed() - ticks; got != wantFed {
					t.Errorf("owned file: driver fed %d requests, want %d", got, wantFed)
				}
				if op == wire.OpWrite {
					if got := e.Snapshot().StoreWrites - snap.StoreWrites; got != 2 {
						t.Errorf("owned file: %d store writes, want 2", got)
					}
				}
			})
		}
	}
	t.Run("client/read-dataless", func(t *testing.T) {
		before := forwards()
		seq++
		h, payload := c.do(t, wire.Header{Op: wire.OpRead, Seq: seq, File: int32(foreign), Offset: 64, Size: 2}, nil)
		if h.Flags&wire.FlagOK == 0 || len(payload) != 0 {
			t.Fatalf("data-less read: flags %#x, %d payload bytes; want served with none", uint8(h.Flags), len(payload))
		}
		if got := forwards() - before; got != 1 {
			t.Fatalf("data-less read: %d forwards, want 1", got)
		}
		if fh := rem.lastForward(); fh.Flags != wire.FlagPeer {
			t.Errorf("data-less read reached the owner with flags %#x, want FlagPeer alone", uint8(fh.Flags))
		}
	})
	t.Run("client/oversize", func(t *testing.T) {
		before := forwards()
		seq++
		overCap := int32(wire.MaxDataBytes/blockSize + 1)
		h := wire.Header{Op: wire.OpRead, Flags: wire.FlagWantData, Seq: seq, File: int32(foreign), Size: overCap}
		if _, err := c.call(t, h, nil); err == nil {
			t.Fatal("oversize read of a foreign file was served")
		}
		if got := forwards() - before; got != 0 {
			t.Errorf("oversize read: %d forwards, want 0: the front refuses it", got)
		}
	})
	t.Run("client/ownerDown", func(t *testing.T) {
		rem.down.Store(true)
		defer rem.down.Store(false)
		for _, op := range []wire.Op{wire.OpRead, wire.OpWrite, wire.OpClose} {
			if _, err := sendErr(t, op, foreign, 72); !sameErr(err, ErrOwnerUnreachable) {
				t.Errorf("%s with the owner down: err=%v, want %q", op, err, ErrOwnerUnreachable)
			}
		}
	})
}

// matrixFlags are the flags the matrix sends op with.
func matrixFlags(op wire.Op) wire.Flags {
	if op == wire.OpRead {
		return wire.FlagWantData
	}
	return 0
}

// pipeline writes frames to c in one call, so the server's loop finds
// each next request already buffered.
func pipeline(t *testing.T, c *rawConn, frames ...wire.Header) {
	t.Helper()
	var reqs bytes.Buffer
	for _, h := range frames {
		var payload []byte
		if h.Op == wire.OpWrite {
			payload = bytes.Repeat([]byte{byte(h.Seq)}, int(h.PayloadLen))
		}
		if _, err := reqs.Write(frameBytes(h, payload)); err != nil {
			t.Fatalf("build pipeline: %v", err)
		}
	}
	if _, err := c.Write(reqs.Bytes()); err != nil {
		t.Fatalf("send pipeline: %v", err)
	}
}

// TestServerMissHoldsUpOnlyItsFile: a miss parked in the store holds up
// neither the connection's read loop nor other files' requests. Hits of
// other files pipelined behind it all come back while it is parked; a
// request of its own file waits its turn behind it.
func TestServerMissHoldsUpOnlyItsFile(t *testing.T) {
	const (
		blockSize = 256
		hits      = 16
	)
	gate := newGateStore(NewMemStore(blockSize, 0), 0)
	srv, addr := startTestServer(t, Config{
		Alg: core.SpecNP, BlockSize: blockSize, CacheBlocks: 64, Store: gate,
	}, nil)
	t.Cleanup(gate.Release) // runs before the server's Close, which waits on the store
	for i := 0; i < hits; i++ {
		srv.e.Preload(blockdev.FileID(10+i), 0, 1, false)
	}
	c := dialRaw(t, addr)
	read := func(seq uint32, f int32) wire.Header {
		return wire.Header{Op: wire.OpRead, Flags: wire.FlagWantData, Seq: seq, File: f, Size: 1}
	}
	frames := []wire.Header{read(1, 1)}
	for i := 0; i < hits; i++ {
		frames = append(frames, read(uint32(2+i), int32(10+i)))
	}
	frames = append(frames, read(hits+2, 1))
	pipeline(t, c, frames...)
	<-gate.started

	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	for i := 0; i < hits; i++ {
		h, payload := c.recv(t, uint32(2+i))
		if h.Flags&wire.FlagHit == 0 {
			t.Fatalf("seq %d: not a hit", h.Seq)
		}
		checkPattern(t, payload, blockSize, blockdev.FileID(10+i), 0, 1)
	}
	gate.Release()
	for _, seq := range []uint32{1, hits + 2} {
		_, payload := c.recv(t, seq)
		checkPattern(t, payload, blockSize, 1, 0, 1)
	}
}

// TestServerFileOrder: the requests of one file keep their order when
// the first of them waits. A write and a read of one block, pipelined
// behind a parked miss of the same file, answer after it and in order,
// and the read returns the written bytes.
func TestServerFileOrder(t *testing.T) {
	const blockSize = 256
	gate := newGateStore(NewMemStore(blockSize, 0), 0)
	_, addr := startTestServer(t, Config{
		Alg: core.SpecNP, BlockSize: blockSize, CacheBlocks: 64, Store: gate,
	}, nil)
	t.Cleanup(gate.Release) // runs before the server's Close, which waits on the store
	c := dialRaw(t, addr)
	pipeline(t, c,
		wire.Header{Op: wire.OpRead, Flags: wire.FlagWantData, Seq: 1, File: 1, Size: 1},
		wire.Header{Op: wire.OpWrite, Seq: 2, File: 1, Offset: 5, Size: 1, PayloadLen: blockSize},
		wire.Header{Op: wire.OpRead, Flags: wire.FlagWantData, Seq: 3, File: 1, Offset: 5, Size: 1},
	)
	<-gate.started
	c.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	if _, err := c.br.Peek(1); err == nil {
		t.Fatal("a response overtook the parked miss of its file")
	}
	gate.Release()
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	c.recv(t, 1)
	if h, _ := c.recv(t, 2); h.Flags&wire.FlagOK == 0 {
		t.Fatal("write refused")
	}
	if _, payload := c.recv(t, 3); !bytes.Equal(payload, bytes.Repeat([]byte{2}, blockSize)) {
		t.Fatal("the read did not return the bytes written before it")
	}
}

// TestServerQueuedRequestIsNotIdle: a connection whose request waits
// in its file's queue past IdleTimeout is busy, not idle, and keeps
// serving other files meanwhile.
func TestServerQueuedRequestIsNotIdle(t *testing.T) {
	const blockSize = 256
	gate := newGateStore(NewMemStore(blockSize, 0), 0)
	srv, addr := startTestServer(t, Config{
		Alg: core.SpecNP, BlockSize: blockSize, CacheBlocks: 64, Store: gate,
	}, func(s *Server) { s.IdleTimeout = 50 * time.Millisecond })
	t.Cleanup(gate.Release)
	srv.e.Preload(2, 0, 1, false)
	c := dialRaw(t, addr)
	read := func(seq uint32, f int32) wire.Header {
		return wire.Header{Op: wire.OpRead, Flags: wire.FlagWantData, Seq: seq, File: f, Size: 1}
	}
	pipeline(t, c, read(1, 1), read(2, 2))
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	c.recv(t, 2)
	<-gate.started
	time.Sleep(150 * time.Millisecond) // three idle timeouts, the miss still parked
	c.do(t, read(3, 2), nil)
	gate.Release()
	_, payload := c.recv(t, 1)
	checkPattern(t, payload, blockSize, 1, 0, 1)
}
