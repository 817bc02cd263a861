package lapclient

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/blockdev"
	"repro/internal/wire"
)

// ErrDeadline reports a call whose response frame had not arrived
// when the connection's call timeout (SetCallTimeout) expired. The
// connection is severed with it, so every call then in flight fails
// with an error wrapping ErrDeadline.
var ErrDeadline = errors.New("lapclient: request deadline exceeded")

// ServerError is an error frame from the server: the request was
// delivered and the server refused it. Every other failure mode —
// dial, write, torn connection — surfaces as a plain error. The
// cluster layer leans on the distinction: a refusal propagates to the
// caller, a transport error marks the peer down and fails the request
// with lapcache.ErrOwnerUnreachable.
type ServerError struct {
	Op  wire.Op
	Msg string
}

func (e *ServerError) Error() string { return fmt.Sprintf("lapclient: server error: %s", e.Msg) }

// DefaultWindow is the per-connection in-flight request cap when the
// caller passes 0.
const DefaultWindow = 32

// Conn is one connection to a server. It is safe for concurrent use
// and pipelined: up to window requests ride the wire at once, and a
// reader goroutine matches responses to waiters by the frame sequence
// number — so one slow round trip does not head-of-line block every
// other caller on the connection.
//
// The write side is a group commit: Do queues its frame, and a caller
// that finds no flush in progress writes everything queued with one
// writev (see flush), so a pipelined burst costs one syscall, not one
// per request.
type Conn struct {
	conn net.Conn
	info PingInfo

	qmu      sync.Mutex
	queue    *wire.FrameBatch // frames for the next writev
	spare    *wire.FrameBatch // the batch the flusher is writing
	flushing bool             // a caller is draining queue
	begun    uint64           // writevs started
	written  uint64           // writevs returned
	yields   uint64           // flusher yields before a first writev
	wrote    sync.Cond        // on qmu: broadcast when a writev returns

	// delivered counts responses handed to callers since the last
	// writev began: callers woken but not yet queued again.
	delivered atomic.Int64

	seq    atomic.Uint32
	window chan struct{} // in-flight slots

	callTimeout atomic.Int64 // max call wait in ns; 0 = unbounded

	pmu     sync.Mutex
	pending map[uint32]*pendingCall
	readErr error
	dead    chan struct{} // closed when the reader goroutine exits
}

// pendingCall is one in-flight request awaiting its response frame;
// the caller waits on ch. When dsts is non-nil and the response is a
// successful read whose payload length matches, the reader lands the
// payload directly into the caller's buffers — the zero-copy half of
// peer forwarding: block bytes go socket → blockbuf with no
// intermediate allocation.
type pendingCall struct {
	ch   chan response
	err  error // set by deliver before the ch send
	dsts [][]byte

	// tmr is the reusable call-timeout timer; it travels with the call
	// record through the pool, so a timed call costs no timer
	// allocation in steady state.
	tmr *time.Timer
}

// callPool recycles call records — the pendingCall, its buffered
// response channel and its timeout timer — across calls and
// connections: the last per-request allocations on the hot read path.
var callPool = sync.Pool{New: func() any { return &pendingCall{ch: make(chan response, 1)} }}

// getCall takes a recycled call record for one exchange.
func getCall(dsts [][]byte) *pendingCall {
	call := callPool.Get().(*pendingCall)
	call.err = nil
	call.dsts = dsts
	return call
}

// putCall recycles a call record. The caller must have consumed the
// channel's delivery (or know none happened): a stale buffered
// response would corrupt the next exchange.
func putCall(call *pendingCall) {
	call.dsts = nil
	callPool.Put(call)
}

// response is one matched response frame.
type response struct {
	h       wire.Header
	payload []byte // owned by the receiver; nil when filled
	filled  bool   // payload landed in the caller's dsts
}

// DialConn connects and runs the handshake: one OpPing exchange, which
// both proves the server speaks this frame version and captures its
// self-description. window bounds in-flight requests (0 =
// DefaultWindow).
func DialConn(addr string, window int) (*Conn, error) {
	return DialConnWith(addr, window, nil)
}

// DialConnWith is DialConn with a connection interposer (nil = none),
// applied before the handshake so faults cover it too.
func DialConnWith(addr string, window int, wrap ConnWrap) (*Conn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	if wrap != nil {
		conn = wrap(conn)
	}
	if window <= 0 {
		window = DefaultWindow
	}
	c := &Conn{
		conn:    conn,
		queue:   new(wire.FrameBatch),
		spare:   new(wire.FrameBatch),
		window:  make(chan struct{}, window),
		pending: make(map[uint32]*pendingCall),
		dead:    make(chan struct{}),
	}
	c.wrote.L = &c.qmu
	go c.readLoop(bufio.NewReaderSize(conn, 64<<10))
	if c.info, err = Ping(c); err != nil {
		c.Close()
		return nil, fmt.Errorf("lapclient: handshake with %s: %w", addr, err)
	}
	return c, nil
}

// Info returns the server self-description captured by the handshake.
func (c *Conn) Info() PingInfo { return c.info }

// SetCallTimeout bounds every call on the connection: a response
// frame that hasn't arrived within d means the connection is treated
// as dead — it is severed, and every in-flight call fails with a
// transport error. Zero (the default) waits forever.
//
// The cluster tier sets this on its peer connections, so a peer that
// stops answering costs a transport error the cluster already
// handles — the forward fails and the health loop redials.
func (c *Conn) SetCallTimeout(d time.Duration) { c.callTimeout.Store(int64(d)) }

// Close tears the connection down; in-flight calls fail.
func (c *Conn) Close() error { return c.conn.Close() }

// readLoop delivers response frames to their waiting callers. The
// sequence number is matched before the payload is read, so a caller
// that registered destination buffers gets the bytes streamed straight
// off the socket into them.
func (c *Conn) readLoop(br *bufio.Reader) {
	var scratch [wire.HeaderSize]byte
	for {
		h, err := wire.ReadHeader(br, scratch[:])
		if err != nil {
			c.fail(fmt.Errorf("lapclient: connection lost: %w", err))
			return
		}
		c.pmu.Lock()
		call := c.pending[h.Seq]
		delete(c.pending, h.Seq)
		c.pmu.Unlock()
		if call == nil {
			c.fail(fmt.Errorf("lapclient: response for unknown seq %d", h.Seq))
			return
		}
		resp := response{h: h}
		if call.dsts != nil && h.Flags&wire.FlagOK != 0 && int(h.PayloadLen) == payloadLen(call.dsts) {
			for _, d := range call.dsts {
				if _, err = io.ReadFull(br, d); err != nil {
					break
				}
			}
			resp.filled = err == nil
		} else {
			// Error frames (and length mismatches) take the allocating
			// path: an error message must never land in a block buffer.
			// The payload is freshly allocated — it is handed to a
			// concurrent caller, so the loop cannot reuse it.
			resp.payload, err = wire.ReadPayload(br, h, nil)
		}
		if err != nil {
			// The current call has already left the pending map, so fail's
			// sweep cannot reach it — deliver its error explicitly.
			lost := fmt.Errorf("lapclient: connection lost: %w", err)
			c.fail(lost)
			c.deliver(call, response{}, lost)
			return
		}
		c.delivered.Add(1)
		c.deliver(call, resp, nil)
	}
}

// deliver completes one call that has been removed from the pending
// map: it records the error and hands the response to the waiter —
// always a send, the channel is never closed, so the call record can
// be recycled.
func (c *Conn) deliver(call *pendingCall, resp response, err error) {
	call.err = err
	call.ch <- resp
}

// payloadLen sums the destination buffer lengths.
func payloadLen(dsts [][]byte) int {
	n := 0
	for _, d := range dsts {
		n += len(d)
	}
	return n
}

// fail poisons the connection: current and future callers get err.
func (c *Conn) fail(err error) {
	c.pmu.Lock()
	if c.readErr == nil {
		c.readErr = err
		close(c.dead)
	}
	pending := c.pending
	c.pending = make(map[uint32]*pendingCall)
	c.pmu.Unlock()
	c.conn.Close()
	for _, call := range pending {
		c.deliver(call, response{}, err)
	}
}

// Dead reports that the connection's reader has exited — it can never
// carry another request, and its owner dials a new one.
func (c *Conn) Dead() bool {
	select {
	case <-c.dead:
		return true
	default:
		return false
	}
}

// send queues one request frame for the wire and returns the number of
// the writev that carries it. The header is encoded into the batch's
// own storage; the payload is gathered by reference (see Do for how
// long it must stay untouched).
func (c *Conn) send(h wire.Header, payload []byte) uint64 {
	c.qmu.Lock()
	c.queue.AppendFrame(h, payload) //nolint:errcheck // Do bounds the payload
	gen := c.begun + 1
	if c.flushing {
		c.qmu.Unlock()
		return gen
	}
	c.flushing = true
	c.flush()
	return gen
}

// flush drains the queue, one writev per batch, until a writev returns
// to an empty queue: frames queued while a writev is in the kernel
// leave with the next one. The caller holds qmu and has set flushing;
// flush releases qmu.
//
// On a two-processor box the burst a response read wakes runs one
// caller after another, so each would find the line free and write
// alone. The flusher therefore yields once before its first writev
// when responses have gone out to at least two more callers than have
// queued since: they are on the run queue and about to send on this
// connection. A depth-1 caller (one delivery, its own frame queued)
// never yields, and the margin of two keeps most yields off
// connections whose woken callers go elsewhere first (a front node's
// peer connection: they answer their own clients). DESIGN §13 has the
// gates that were measured.
//
// Any write error severs the connection: the frames in a torn writev
// may belong to several callers, and the stream after a partial frame
// is garbage, so every queued and in-flight call fails.
func (c *Conn) flush() {
	if c.delivered.Load() >= int64(c.queue.Len())+2 {
		c.yields++
		c.qmu.Unlock()
		runtime.Gosched()
		c.qmu.Lock()
	}
	for c.queue.Len() > 0 {
		b := c.queue
		c.queue, c.spare = c.spare, b
		c.begun++
		c.delivered.Store(0)
		c.qmu.Unlock()
		if err := b.Flush(c.conn); err != nil {
			c.fail(fmt.Errorf("lapclient: connection lost: write: %w", err))
		}
		c.qmu.Lock()
		c.written++
		c.wrote.Broadcast()
	}
	c.flushing = false
	c.qmu.Unlock()
}

// Do runs one pipelined request/response exchange — the connection's
// one way to put a frame on the wire. It returns the response header
// (FlagHit) and payload; an error frame surfaces as a
// *ServerError. When dsts is non-nil the payload of a successful read
// is landed directly in it (one pre-sized slice per block) and the
// returned payload is nil: with the shared vectored write and the
// recycled call record, such a read costs zero allocations end to end
// — the hot-path contract TestLocalHitAllocs and the cluster's
// TestRemoteHitAllocs assert.
//
// payload is written by reference, from whichever caller flushes it,
// and Do never returns while a writev may still read it: a response
// means the server has read the whole frame, and a failed call waits
// for the writev that carries its frame. The caller may reuse payload
// as soon as Do returns.
func (c *Conn) Do(h wire.Header, payload []byte, dsts [][]byte) (wire.Header, []byte, error) {
	if len(payload) > wire.MaxPayload {
		return wire.Header{}, nil, wire.ErrFrameTooLarge
	}
	select {
	case c.window <- struct{}{}:
	case <-c.dead:
		return wire.Header{}, nil, c.err()
	}
	defer func() { <-c.window }()

	h.Seq = c.seq.Add(1)
	call := getCall(dsts)
	c.pmu.Lock()
	if c.readErr != nil {
		c.pmu.Unlock()
		putCall(call)
		return wire.Header{}, nil, c.err()
	}
	c.pending[h.Seq] = call
	c.pmu.Unlock()

	gen := c.send(h, payload)

	var resp response
	if d := time.Duration(c.callTimeout.Load()); d > 0 {
		t := call.tmr
		if t == nil {
			t = time.NewTimer(d)
			call.tmr = t
		} else {
			t.Reset(d)
		}
		select {
		case resp = <-call.ch:
			// A timer that fired between the delivery and Stop leaves
			// its tick buffered (pre-1.23 timer semantics — go.mod pins
			// an older language version); drain it so the recycled
			// record's next Reset starts clean. Only this goroutine
			// ever receives from t.C.
			if !t.Stop() {
				<-t.C
			}
		case <-t.C:
			// The response is overdue past any plausible round trip.
			// Sever the connection: fail delivers to every pending call
			// (including this one), so the receive below cannot block.
			// Rescuing just this call would desynchronize the pipeline —
			// a late response frame would match no waiter.
			c.fail(fmt.Errorf("lapclient: call timed out after %v: %w", d, ErrDeadline))
			resp = <-call.ch
		}
	} else {
		resp = <-call.ch
	}
	err := call.err
	if err != nil && len(payload) > 0 {
		// A response proves the server read the whole frame, so the
		// payload has left; a failure proves nothing of the kind: wait
		// for the writev that carries it to return.
		c.qmu.Lock()
		for c.written < gen {
			c.wrote.Wait()
		}
		c.qmu.Unlock()
	}
	putCall(call)
	if err != nil {
		return wire.Header{}, nil, err
	}
	if resp.h.Flags&wire.FlagOK == 0 {
		return wire.Header{}, nil, &ServerError{Op: resp.h.Op, Msg: string(resp.payload)}
	}
	if dsts != nil && !resp.filled {
		// The reader only bypasses dsts on a length mismatch.
		return wire.Header{}, nil, fmt.Errorf("lapclient: read returned %d bytes, want %d",
			len(resp.payload), payloadLen(dsts))
	}
	return resp.h, resp.payload, nil
}

func (c *Conn) err() error {
	c.pmu.Lock()
	defer c.pmu.Unlock()
	if c.readErr != nil {
		return c.readErr
	}
	return errors.New("lapclient: connection closed")
}

// ReadInto reads nblocks blocks of f starting at off, landing the
// payload directly in dsts (one pre-sized slice per block).
func (c *Conn) ReadInto(f blockdev.FileID, off blockdev.BlockNo, nblocks int32, dsts [][]byte) (hit bool, err error) {
	rh, _, err := c.Do(Req(wire.OpRead, wire.FlagWantData, f, off, nblocks), nil, dsts)
	return rh.Flags&wire.FlagHit != 0, err
}

// Write sends nblocks blocks starting at off; nil data writes the
// deterministic fill pattern server-side.
func (c *Conn) Write(f blockdev.FileID, off blockdev.BlockNo, nblocks int32, data []byte) error {
	_, _, err := c.Do(Req(wire.OpWrite, 0, f, off, nblocks), data, nil)
	return err
}

// CloseFile tells the server this client is done with f for now.
func (c *Conn) CloseFile(f blockdev.FileID) error {
	_, _, err := c.Do(wire.Header{Op: wire.OpClose, File: int32(f)}, nil, nil)
	return err
}
