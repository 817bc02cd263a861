package lapcache

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/blockbuf"
	"repro/internal/blockdev"
	"repro/internal/wire"
)

// A connection speaks wire frames from its first byte (see
// internal/wire): the header's version byte is the negotiation, and a
// client's opening OpPing is the handshake that reports the server's
// algorithm and block size. Requests are pipelined per connection;
// each response carries its request's Seq, and the requests of one
// file are answered in order. Offsets and sizes are in blocks; clients
// convert byte ranges with blockdev.ByteRangeToSpan, honouring the
// paper's two-bytes-two-blocks rule. Reads stream raw block payloads straight
// from the cache's refcounted buffers — no copy.

// pingPayload is the JSON document carried by a ping response (a rare
// op, so its encoding is irrelevant).
type pingPayload struct {
	Alg       string `json:"alg"`
	BlockSize int    `json:"block_size"`
}

// CloseReason classifies why one connection's serve loop ended. The
// distinctions matter under faults: a client cut off in the middle of
// a frame used to be indistinguishable from one that idled out, which
// made injected disconnects invisible in drain accounting.
type CloseReason string

const (
	// CloseEOF: the client disconnected cleanly at a frame boundary.
	CloseEOF CloseReason = "eof"
	// CloseIdle: no request arrived within IdleTimeout (the deadline
	// fired at a frame boundary).
	CloseIdle CloseReason = "idle_timeout"
	// CloseMidFrame: the connection died or stalled out INSIDE a frame
	// — a truncated header, a payload that never finished, an injected
	// mid-stream disconnect. Never conflated with CloseIdle: the
	// client was mid-request, not quiet.
	CloseMidFrame CloseReason = "mid_frame"
	// CloseShutdown: the server's drain path retired the connection.
	CloseShutdown CloseReason = "shutdown"
	// CloseProtocol: the client sent bytes that do not parse as a
	// frame (bad version, nonzero reserved byte, oversized payload).
	CloseProtocol CloseReason = "protocol"
	// CloseWrite: a response write or flush failed (slow or gone
	// client).
	CloseWrite CloseReason = "write_error"
	// CloseTransport: a non-EOF transport error at a frame boundary
	// (connection reset between requests).
	CloseTransport CloseReason = "transport"
)

// Server fronts an Engine over TCP.
type Server struct {
	e *Engine

	// Shards is the number of accept goroutines on the shared listener
	// (lapcached -shards; 0 or 1: one). They share one connection
	// registry, which is touched when a connection is accepted or
	// closed, never by a request. Set before Serve.
	Shards int
	// IdleTimeout, when positive, closes a connection that sends no
	// request for the duration (lapcached -idle-timeout). Zero keeps
	// connections open forever, the historical behaviour.
	IdleTimeout time.Duration
	// ConnWrap, when non-nil, interposes on every accepted connection
	// before any protocol traffic; the chaos harness uses it to inject
	// transport faults on the server side of the wire.
	ConnWrap func(net.Conn) net.Conn

	// drainGrace bounds how long Close waits for an in-flight response
	// to flush to a slow client before the write is abandoned.
	drainGrace time.Duration

	// mu guards the listener, closed and the connection registry: the
	// open connections and how each closed one ended.
	mu      sync.Mutex
	ln      net.Listener
	closed  bool
	conns   map[net.Conn]struct{}
	reasons map[CloseReason]uint64
	closing chan struct{}
	wg      sync.WaitGroup
}

// NewServer returns a server around e.
func NewServer(e *Engine) *Server {
	return &Server{
		e:          e,
		drainGrace: 2 * time.Second,
		conns:      make(map[net.Conn]struct{}),
		reasons:    make(map[CloseReason]uint64),
		closing:    make(chan struct{}),
	}
}

// CloseCounts returns how many connections ended for each reason —
// the drain path's audit trail (tests and the chaos harness assert
// injected mid-frame disconnects land under CloseMidFrame, not
// CloseIdle).
func (s *Server) CloseCounts() map[CloseReason]uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return maps.Clone(s.reasons)
}

// acceptFailureBudget bounds consecutive accept-loop errors before
// Serve gives up; transient failures (fd exhaustion, injected
// listener faults) are retried with backoff instead of killing the
// server.
const acceptFailureBudget = 10

// Serve accepts connections on ln until Close. Transient accept
// errors are retried with capped backoff (up to acceptFailureBudget
// consecutive failures per accept loop); it returns nil after a
// Close-initiated shutdown and the first accept error once a loop's
// retry budget is spent. max(Shards, 1) accept goroutines share the
// listener.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("lapcache: server already closed")
	}
	s.ln = ln
	s.mu.Unlock()
	n := max(s.Shards, 1)
	errc := make(chan error, n)
	for range n {
		go func() { errc <- s.acceptLoop(ln) }()
	}
	var first error
	for range n {
		if err := <-errc; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// acceptLoop is one accept goroutine on the shared listener.
func (s *Server) acceptLoop(ln net.Listener) error {
	failures := 0
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			failures++
			if failures >= acceptFailureBudget {
				return err
			}
			// Back off before retrying; a torn-down listener fails every
			// retry instantly, so the budget still bounds the loop.
			backoff := 5 * time.Millisecond << uint(failures)
			if backoff > 250*time.Millisecond {
				backoff = 250 * time.Millisecond
			}
			select {
			case <-s.closing:
				return nil
			case <-time.After(backoff):
			}
			continue
		}
		failures = 0
		if s.ConnWrap != nil {
			conn = s.ConnWrap(conn)
		}
		// Register under s.mu so the check-and-register is atomic with
		// Close's deadline sweep: either closed is visible here, or the
		// registration completes before Close takes s.mu and the sweep
		// covers the conn.
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handle(conn)
	}
}

// Close stops accepting and shuts down draining: every in-flight
// request finishes dispatching and its response is flushed (bounded
// by drainGrace for clients too slow to take the bytes) before the
// connection closes; idle connections are interrupted immediately.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	close(s.closing)
	if s.ln != nil {
		s.ln.Close()
	}
	now := time.Now()
	for c := range s.conns {
		// Unblock handlers parked in a read between requests; a
		// handler mid-dispatch is not reading and finishes its
		// response first (the drain), bounded by the write deadline.
		c.SetReadDeadline(now)
		c.SetWriteDeadline(now.Add(s.drainGrace))
	}
	s.mu.Unlock()
	s.wg.Wait()
}

func (s *Server) isClosing() bool {
	select {
	case <-s.closing:
		return true
	default:
		return false
	}
}

// armRead sets the deadline for the next blocking read on conn:
// the idle timeout if configured, cleared otherwise — and an
// immediate deadline if the server is closing (re-checked after
// setting, so a racing Close cannot be overwritten into oblivion).
func (s *Server) armRead(conn net.Conn) {
	if s.IdleTimeout > 0 {
		conn.SetReadDeadline(time.Now().Add(s.IdleTimeout))
	} else {
		conn.SetReadDeadline(time.Time{})
	}
	if s.isClosing() {
		conn.SetReadDeadline(time.Now())
	}
}

func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	h := &connHandler{
		s: s, conn: conn, br: bufio.NewReaderSize(conn, 64<<10),
		out: new(outBatch), spare: new(outBatch),
		files: make(map[blockdev.FileID]*fileQueue),
	}
	h.idle.L = &h.mu
	reason := h.serve()
	s.mu.Lock()
	s.reasons[reason]++
	delete(s.conns, conn)
	s.mu.Unlock()
	conn.Close()
}

// readReason classifies a failed read. midFrame reports the failure
// happened inside a frame (a partial header, an unfinished payload):
// that is always a mid-frame close, never an idle timeout, whatever
// error the deadline machinery dressed it in.
func (s *Server) readReason(err error, midFrame bool) CloseReason {
	if midFrame {
		return CloseMidFrame
	}
	if s.isClosing() {
		return CloseShutdown
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return CloseIdle
	}
	if errors.Is(err, io.EOF) {
		return CloseEOF
	}
	return CloseTransport
}

// connHandler runs one connection's request loop. The loop parses
// every request. One that may wait, on a store read or on another
// node, goes to its file's queue, so it holds up neither the loop nor
// other files, while one file's requests keep their order: the
// paper's rule, parallel across files and never within one. Responses
// carry their request's Seq, so across files they may leave out of
// order. All of them go through one batch: vectored writes straight
// to conn, no bufio staging copy.
type connHandler struct {
	s    *Server
	conn net.Conn
	br   *bufio.Reader
	bufs []*blockbuf.Buf // the loop's reused gather slice for read responses
	// pipelined: the sender has had a request buffered behind another,
	// or arriving while a queue was in flight. Until then a request
	// waits on the loop (see route).
	pipelined bool
	// queued counts the files with a queue, so the loop skips the lock
	// while there is none (always, while every request hits).
	queued atomic.Int32

	// mu guards the rest; idle is signalled whenever a queue drains.
	mu   sync.Mutex
	idle sync.Cond
	// out gathers frames for the next writev; spare is the batch a
	// writev is sending, and frames queued meanwhile leave with the
	// flusher's next one.
	out, spare *outBatch
	flushing   bool
	// held: the loop has a complete next request buffered and flushes
	// when its burst ends, so a queued request's response waits for it.
	held  bool
	werr  error // the first failed write; the connection is dead
	files map[blockdev.FileID]*fileQueue
}

// outBatch is one writev's worth of response frames and the
// refcounted cache buffers whose bytes they reference, released only
// after the syscall returns (or the batch is dropped on a dying
// connection).
type outBatch struct {
	batch   wire.FrameBatch
	release []*blockbuf.Buf
}

func (b *outBatch) releaseAll() {
	for i, buf := range b.release {
		buf.Release()
		b.release[i] = nil
	}
	b.release = b.release[:0]
}

// fileQueue holds one file's requests from the first that may wait
// onwards, in arrival order; the head is the one being served.
type fileQueue struct {
	f    blockdev.FileID
	reqs []queuedReq
}

type queuedReq struct {
	hd      wire.Header
	payload []byte
}

// flushLocked writes out, one writev per batch, until a writev returns
// to an empty out; a flush already under way takes the frames instead.
// The caller holds mu, which is released around each syscall.
func (h *connHandler) flushLocked() {
	if h.flushing {
		return
	}
	h.flushing = true
	for h.out.batch.Len() > 0 && h.werr == nil {
		b := h.out
		h.out, h.spare = h.spare, b
		h.mu.Unlock()
		// Release after the syscall: the net.Buffers ownership rule
		// (DESIGN.md §13).
		err := b.batch.Flush(h.conn)
		b.releaseAll()
		h.mu.Lock()
		if err != nil {
			h.werr = err
		}
	}
	h.flushing = false
	if h.werr != nil {
		h.out.batch.Reset()
		h.out.releaseAll()
	}
}

// nextRequestBuffered reports whether a COMPLETE next request —
// header and payload — is already sitting in the read buffer. This is
// the coalescing latch: responses keep accumulating only while the
// next dispatch is guaranteed not to block on the socket, so a batch
// can never deadlock against a client that waits for responses before
// sending more. Purely data-driven (drain-the-ready-queue); never a
// timer, so an unpipelined request's response is never held back.
func (h *connHandler) nextRequestBuffered() bool {
	if h.br.Buffered() < wire.HeaderSize {
		return false
	}
	p, err := h.br.Peek(wire.HeaderSize)
	if err != nil {
		return false
	}
	hd, err := wire.ParseHeader(p)
	if err != nil {
		// The next frame is garbage; flush what we have first — the
		// loop will then kill the connection with CloseProtocol.
		return false
	}
	return h.br.Buffered() >= wire.HeaderSize+int(hd.PayloadLen)
}

// maxCoalesce bounds how many responses accumulate in the batch
// before a flush is forced even with more requests buffered; it caps
// the memory pinned by gathered cache buffers and keeps one writev's
// iovec list small. It also bounds the files one connection has
// queued: past it, the loop stops reading until a queue drains.
const maxCoalesce = 64

// serve is the connection's framed request loop. Read responses stream
// block payloads directly from the cache's refcounted buffers onto the
// socket with vectored writes — no staging copy — and responses to
// pipelined requests coalesce into a single writev: the loop flushes
// exactly when no complete next request is already buffered (see
// nextRequestBuffered), so a lone request's latency never waits on a
// latch. A queued request's response flushes as it lands, unless the
// loop is mid-burst and will flush it with its own.
func (h *connHandler) serve() CloseReason {
	s := h.s
	var (
		scratch [wire.HeaderSize]byte
		payload []byte // reused for write payloads until a queue takes it
	)
	for {
		s.armRead(h.conn)
		// Judge the frame by its first four bytes, as soon as they are
		// in: a peer that is not speaking frames at all (an old client's
		// JSON line) may never send a header's worth, and waiting for
		// one would park this goroutine against a client that is itself
		// waiting for an answer.
		prefix, err := h.br.Peek(wire.PrefixSize)
		if err != nil {
			var ne net.Error
			if len(prefix) == 0 && errors.As(err, &ne) && ne.Timeout() && !s.isClosing() && h.queued.Load() > 0 {
				continue // not idle: a queued request is still being served
			}
			// A death after SOME header bytes — a truncated frame — is
			// distinguishable from a death at the frame boundary.
			return h.finish(s.readReason(err, len(prefix) > 0))
		}
		if wire.CheckPrefix(prefix) != nil {
			return h.finish(CloseProtocol)
		}
		if _, err := io.ReadFull(h.br, scratch[:]); err != nil {
			return h.finish(CloseMidFrame)
		}
		hd, err := wire.ParseHeader(scratch[:])
		if err != nil {
			return h.finish(CloseProtocol)
		}
		if payload, err = wire.ReadPayload(h.br, hd, payload); err != nil {
			// The header arrived but its payload did not: mid-frame by
			// definition, whatever the underlying error.
			return h.finish(CloseMidFrame)
		}
		h.pipelined = h.pipelined || h.nextRequestBuffered()
		payload = h.route(hd, payload)
		more := h.nextRequestBuffered()
		h.mu.Lock()
		h.held = more && h.out.batch.Len() < maxCoalesce
		if !h.held {
			h.flushLocked()
		}
		dead := h.werr != nil
		h.mu.Unlock()
		if dead {
			return h.finish(CloseWrite)
		}
		if s.isClosing() {
			return h.finish(CloseShutdown)
		}
	}
}

// finish ends the loop: it waits for every queue to drain, flushes
// what is left, and reports why the connection closes (a failed write
// outranks the loop's reason).
func (h *connHandler) finish(reason CloseReason) CloseReason {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.held = false
	h.flushLocked()
	for len(h.files) > 0 {
		h.idle.Wait()
	}
	h.flushLocked()
	if h.werr != nil {
		return CloseWrite
	}
	return reason
}

// route serves a request on the loop or queues it behind its file. A
// file with a queue takes all of its requests until the queue drains,
// and a request that may wait starts one — unless its connection has
// never pipelined: the loop would only wait for the sender's next
// request, so it waits on this one instead and spares the hand-off.
// A peer's request takes the same rule: it is served strictly
// locally, so it never waits on another node. It returns the payload
// buffer for the loop's next request: the same one, or nil if a queue
// took it.
func (h *connHandler) route(hd wire.Header, payload []byte) []byte {
	f := blockdev.FileID(hd.File)
	named := hd.Op == wire.OpRead || hd.Op == wire.OpWrite || hd.Op == wire.OpClose
	if named && h.queued.Load() > 0 {
		h.pipelined = true
		h.mu.Lock()
		if q := h.files[f]; q != nil {
			q.reqs = append(q.reqs, queuedReq{hd, payload})
			h.mu.Unlock()
			return nil
		}
		h.mu.Unlock()
	}
	if !named || !h.pipelined || !h.s.mayWait(hd) {
		h.bufs = h.dispatch(h.bufs, hd, payload, false)
		return payload
	}
	// Only the loop creates queues, so f has none.
	h.mu.Lock()
	defer h.mu.Unlock()
	for len(h.files) >= maxCoalesce {
		h.held = false
		h.flushLocked()
		h.idle.Wait()
	}
	q := &fileQueue{f: f, reqs: []queuedReq{{hd, payload}}}
	h.files[f] = q
	h.queued.Add(1)
	go h.drain(q)
	return nil
}

// drain serves q's requests in order until it is empty, then retires
// it.
func (h *connHandler) drain(q *fileQueue) {
	var bufs []*blockbuf.Buf
	h.mu.Lock()
	defer h.mu.Unlock()
	for len(q.reqs) > 0 {
		r := q.reqs[0]
		h.mu.Unlock()
		bufs = h.dispatch(bufs, r.hd, r.payload, true)
		h.mu.Lock()
		q.reqs = append(q.reqs[:0], q.reqs[1:]...)
	}
	delete(h.files, q.f)
	h.queued.Add(-1)
	h.idle.Broadcast()
}

// mayWait reports whether serving hd may wait on a store read or on
// another node: a client's request of a file owned elsewhere
// (forwarded), or a read of a block not cached here. It only places
// the request: a block evicted after the check is read on the loop.
func (s *Server) mayWait(hd wire.Header) bool {
	if !hd.Flags.Known() {
		return false
	}
	e, f := s.e, blockdev.FileID(hd.File)
	switch hd.Op {
	case wire.OpRead:
		if !e.spanOK(blockdev.BlockNo(hd.Offset), hd.Size) {
			return false // exec refuses it
		}
		if e.forwarded(f, modeOf(hd.Flags)) {
			return true
		}
		for i := int32(0); i < hd.Size; i++ {
			if !e.cache.Contains(blockdev.BlockID{File: f, Block: blockdev.BlockNo(hd.Offset + i)}) {
				return true
			}
		}
	case wire.OpWrite, wire.OpClose:
		return e.forwarded(f, modeOf(hd.Flags))
	}
	return false
}

// modeOf maps a request's FlagPeer bit to the mode the engine serves
// it in.
func modeOf(fl wire.Flags) reqMode {
	if fl&wire.FlagPeer != 0 {
		return modePeer
	}
	return modeClient
}

// dispatch serves one request and queues its response. Buffers queued
// for the wire move to the batch's release list, released after the
// flush syscall. A queued request flushes its response unless the
// loop holds the batch; the loop flushes its own. bufs is the caller's
// reused gather slice, returned empty.
func (h *connHandler) dispatch(bufs []*blockbuf.Buf, hd wire.Header, payload []byte, queued bool) []*blockbuf.Buf {
	out, body, bufs := h.exec(bufs[:0], hd, payload)
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(bufs) > 0 {
		h.out.batch.AppendHeader(out)
		for _, buf := range bufs {
			h.out.batch.AppendPayload(buf.Bytes())
			h.out.release = append(h.out.release, buf)
		}
	} else {
		// AppendFrame only fails past MaxPayload; error messages and
		// the JSON bodies are far below it.
		h.out.batch.AppendFrame(out, body) //nolint:errcheck
	}
	if h.werr != nil || (queued && !h.held) {
		h.flushLocked()
	}
	return bufs[:0]
}

// exec is the one request body: it maps (Op, Flags) onto the engine's
// read, write and close bodies — the flags choose the mode, never a
// different entry point — and returns the response header and either
// its payload (an error message or a rare op's JSON document) or, for
// a read that wants data, one retained buffer per block for the
// caller.
func (h *connHandler) exec(bufs []*blockbuf.Buf, hd wire.Header, payload []byte) (wire.Header, []byte, []*blockbuf.Buf) {
	s := h.s
	refuse := func(msg string) (wire.Header, []byte, []*blockbuf.Buf) {
		return wire.Header{Op: hd.Op, Seq: hd.Seq}, []byte(msg), bufs[:0]
	}
	// Version-skew guard: a structurally sound frame whose op or flags
	// this build does not define gets an error frame, not a dropped
	// connection — the payload has already been consumed, so the stream
	// stays framed and the client can fall back.
	if !hd.Op.Known() || !hd.Flags.Known() {
		return refuse(fmt.Sprintf("unsupported op %s flags %#x", hd.Op, uint8(hd.Flags)))
	}
	m := modeOf(hd.Flags)
	f, off := blockdev.FileID(hd.File), blockdev.BlockNo(hd.Offset)
	flags := wire.FlagOK
	var doc any // JSON response document of the rare ops

	switch hd.Op {
	case wire.OpRead:
		var (
			hit bool
			err error
		)
		if bufs, hit, err = s.e.read(bufs, f, off, hd.Size, m); err != nil {
			return refuse(err.Error())
		}
		if hit {
			flags |= wire.FlagHit
		}
		out := wire.Header{Op: hd.Op, Flags: flags, Seq: hd.Seq}
		if hd.Flags&wire.FlagWantData == 0 {
			for _, buf := range bufs {
				buf.Release()
			}
			return out, nil, bufs[:0]
		}
		out.PayloadLen = uint32(int(hd.Size) * s.e.BlockSize())
		return out, nil, bufs

	case wire.OpWrite:
		var data []byte
		if hd.PayloadLen > 0 {
			data = payload
		}
		if err := s.e.write(f, off, hd.Size, data, m); err != nil {
			return refuse(err.Error())
		}

	case wire.OpClose:
		if err := s.e.closeFile(f, m); err != nil {
			return refuse(err.Error())
		}

	case wire.OpPing:
		doc = pingPayload{Alg: s.e.AlgName(), BlockSize: s.e.BlockSize()}

	case wire.OpStats:
		doc = s.e.Snapshot()

	default:
		// Unreachable while Known() covers every case above; kept so
		// a future op added to wire but not here fails cleanly.
		return refuse(fmt.Sprintf("unsupported op %s", hd.Op))
	}

	var body []byte
	if doc != nil {
		var err error
		if body, err = json.Marshal(doc); err != nil {
			return refuse(fmt.Sprintf("encode %s: %v", hd.Op, err))
		}
	}
	return wire.Header{Op: hd.Op, Flags: flags, Seq: hd.Seq}, body, bufs
}
