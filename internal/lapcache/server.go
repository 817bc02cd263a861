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
	"time"

	"repro/internal/blockbuf"
	"repro/internal/blockdev"
	"repro/internal/wire"
)

// A connection speaks wire frames from its first byte (see
// internal/wire): the header's version byte is the negotiation, and a
// client's opening OpPing is the handshake that reports the server's
// algorithm and block size. Requests are pipelined in order per
// connection. Offsets and sizes are in blocks; clients convert byte
// ranges with blockdev.ByteRangeToSpan, honouring the paper's
// two-bytes-two-blocks rule. Reads stream raw block payloads straight
// from the cache's refcounted buffers — no copy.

// pingPayload is the JSON document carried by a ping response (a rare
// op, so its encoding is irrelevant).
type pingPayload struct {
	Alg       string `json:"alg"`
	BlockSize int    `json:"block_size"`
	// Self and Members describe cluster membership on a clustered
	// server; absent on a single node.
	Self    string   `json:"self,omitempty"`
	Members []string `json:"members,omitempty"`
}

// ownerPayload is the JSON document answering an ownership query.
type ownerPayload struct {
	Owner string `json:"owner"`
	Self  bool   `json:"self"`
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

	// Cluster, when non-nil, exposes ring membership through the
	// "owner" op and lets peers address this node as part of a
	// cooperative cache. nil on a single-node server, which answers
	// ownership queries with an error.
	Cluster ClusterInfo

	// Shards is the number of accept goroutines on the shared listener
	// (lapcached -shards; 0 or 1: one). They share one connection
	// registry, which is touched when a connection is accepted or
	// closed, never by a request. Set before Serve.
	Shards int
	// IdleTimeout, when positive, closes a connection that sends no
	// request for the duration (lapcached -idle-timeout). Zero keeps
	// connections open forever, the historical behaviour.
	IdleTimeout time.Duration
	// DrainGrace bounds how long Close waits for an in-flight
	// response to flush to a slow client before the write is abandoned
	// (default 2s).
	DrainGrace time.Duration
	// ConnWrap, when non-nil, interposes on every accepted connection
	// before any protocol traffic; the chaos harness uses it to inject
	// transport faults on the server side of the wire.
	ConnWrap func(net.Conn) net.Conn

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
		e:       e,
		conns:   make(map[net.Conn]struct{}),
		reasons: make(map[CloseReason]uint64),
		closing: make(chan struct{}),
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
// by DrainGrace for clients too slow to take the bytes) before the
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
	grace := s.DrainGrace
	if grace <= 0 {
		grace = 2 * time.Second
	}
	now := time.Now()
	for c := range s.conns {
		// Unblock handlers parked in a read between requests; a
		// handler mid-dispatch is not reading and finishes its
		// response first (the drain), bounded by the write deadline.
		c.SetReadDeadline(now)
		c.SetWriteDeadline(now.Add(grace))
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
	h := &connHandler{s: s, conn: conn, br: bufio.NewReaderSize(conn, 64<<10)}
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

// connHandler runs one connection's request loop. Responses go
// through batch — vectored writes straight to conn, no bufio staging
// copy.
type connHandler struct {
	s    *Server
	conn net.Conn
	br   *bufio.Reader

	// batch gathers response frames for one writev; release
	// holds the refcounted cache buffers whose bytes the batch
	// references, released only after the syscall returns (or the
	// batch is dropped on a dying connection).
	batch   wire.FrameBatch
	release []*blockbuf.Buf
	bufs    []*blockbuf.Buf // reused gather slice for read responses
}

// queueError stages an error frame for hd's request.
func (h *connHandler) queueError(hd wire.Header, msg string) {
	// AppendFrame only fails past MaxPayload; error messages are
	// always far below it.
	h.batch.AppendFrame(wire.Header{Op: hd.Op, Seq: hd.Seq}, []byte(msg)) //nolint:errcheck
}

// flushBatch writes the queued responses with one vectored write and
// releases the cache buffers they referenced — after the syscall, per
// the net.Buffers ownership rule (DESIGN.md §13).
func (h *connHandler) flushBatch() error {
	err := h.batch.Flush(h.conn)
	for i, b := range h.release {
		b.Release()
		h.release[i] = nil
	}
	h.release = h.release[:0]
	return err
}

// dropBatch abandons queued responses on a dying connection, still
// releasing their buffers.
func (h *connHandler) dropBatch() {
	h.batch.Reset()
	for i, b := range h.release {
		b.Release()
		h.release[i] = nil
	}
	h.release = h.release[:0]
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
// iovec list small.
const maxCoalesce = 64

// serve is the connection's framed request loop. Read responses stream
// block payloads directly from the cache's refcounted buffers onto the
// socket with vectored writes — no staging copy — and responses to
// pipelined requests coalesce into a single writev: the batch flushes
// exactly when no complete next request is already buffered (see
// nextRequestBuffered), so a lone request's latency never waits on a
// latch.
func (h *connHandler) serve() CloseReason {
	s := h.s
	var (
		scratch [wire.HeaderSize]byte
		payload []byte // reused for write payloads
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
			// A death after SOME header bytes — a truncated frame — is
			// distinguishable from a death at the frame boundary.
			h.dropBatch()
			return s.readReason(err, len(prefix) > 0)
		}
		if wire.CheckPrefix(prefix) != nil {
			h.dropBatch()
			return CloseProtocol
		}
		if _, err := io.ReadFull(h.br, scratch[:]); err != nil {
			h.dropBatch()
			return CloseMidFrame
		}
		hd, err := wire.ParseHeader(scratch[:])
		if err != nil {
			h.dropBatch()
			return CloseProtocol
		}
		if payload, err = wire.ReadPayload(h.br, hd, payload); err != nil {
			// The header arrived but its payload did not: mid-frame by
			// definition, whatever the underlying error.
			h.dropBatch()
			return CloseMidFrame
		}
		h.dispatch(hd, payload)
		if h.batch.Len() >= maxCoalesce || !h.nextRequestBuffered() {
			if err := h.flushBatch(); err != nil {
				return CloseWrite
			}
		}
		if s.isClosing() {
			if err := h.flushBatch(); err != nil {
				return CloseWrite
			}
			return CloseShutdown
		}
	}
}

// dispatch is the one request dispatcher: it maps (Op, Flags) onto the
// engine's read, write and close bodies — the flags choose the mode,
// never a different entry point — and stages the response into the
// batch. Buffers queued for the wire move to h.release and are
// released after the flush syscall.
func (h *connHandler) dispatch(hd wire.Header, payload []byte) {
	s := h.s
	// Version-skew guard: a structurally sound frame whose op or flags
	// this build does not define gets an error frame, not a dropped
	// connection — the payload has already been consumed, so the stream
	// stays framed and the client can fall back.
	if !hd.Op.Known() || !hd.Flags.Known() {
		h.queueError(hd, fmt.Sprintf("unsupported op %s flags %#x", hd.Op, uint8(hd.Flags)))
		return
	}
	m := modeClient
	switch hd.Flags & (wire.FlagPeer | wire.FlagReplica) {
	case wire.FlagPeer:
		m = modePeer
	case wire.FlagPeer | wire.FlagReplica:
		m = modeReplica
	case wire.FlagReplica:
		h.queueError(hd, "FlagReplica requires FlagPeer")
		return
	}
	f, off := blockdev.FileID(hd.File), blockdev.BlockNo(hd.Offset)
	flags := wire.FlagOK
	var doc any // JSON response document of the rare ops

	switch hd.Op {
	case wire.OpRead:
		want := hd.Flags&wire.FlagWantData != 0
		total := int64(hd.Size) * int64(s.e.BlockSize())
		if want && (total <= 0 || total > wire.MaxDataBytes) {
			h.queueError(hd, fmt.Sprintf("read of %d blocks exceeds the %d-byte payload cap", hd.Size, wire.MaxDataBytes))
			return
		}
		bufs, hit, err := s.e.read(h.bufs[:0], f, off, hd.Size, m)
		h.bufs = bufs[:0]
		if err != nil {
			h.queueError(hd, err.Error())
			return
		}
		if hit {
			flags |= wire.FlagHit
		}
		out := wire.Header{Op: hd.Op, Flags: flags, Seq: hd.Seq}
		if want {
			out.PayloadLen = uint32(total)
		}
		h.batch.AppendHeader(out)
		for _, buf := range bufs {
			if want {
				// Ownership of the retained buffer moves to h.release;
				// the bytes stay pinned until the flush syscall returns.
				h.batch.AppendPayload(buf.Bytes())
				h.release = append(h.release, buf)
			} else {
				buf.Release()
			}
		}
		return

	case wire.OpWrite:
		var data []byte
		if hd.PayloadLen > 0 {
			data = payload
		}
		replicated, err := s.e.write(f, off, hd.Size, data, m)
		if err != nil {
			h.queueError(hd, err.Error())
			return
		}
		if replicated {
			flags |= wire.FlagReplicated
		}

	case wire.OpClose:
		s.e.closeFile(f, m)

	case wire.OpPing:
		pp := pingPayload{Alg: s.e.AlgName(), BlockSize: s.e.BlockSize()}
		if s.Cluster != nil {
			pp.Self = s.Cluster.Self()
			pp.Members = s.Cluster.MemberAddrs()
		}
		doc = pp

	case wire.OpStats:
		doc = s.e.Snapshot()

	case wire.OpOwner:
		if s.Cluster == nil {
			h.queueError(hd, "server is not clustered")
			return
		}
		addr, self := s.Cluster.OwnerOf(f)
		doc = ownerPayload{Owner: addr, Self: self}

	default:
		// Unreachable while Known() covers every case above; kept so
		// a future op added to wire but not here fails cleanly.
		h.queueError(hd, fmt.Sprintf("unsupported op %s", hd.Op))
		return
	}

	var body []byte
	if doc != nil {
		var err error
		if body, err = json.Marshal(doc); err != nil {
			h.queueError(hd, fmt.Sprintf("encode %s: %v", hd.Op, err))
			return
		}
	}
	// AppendFrame only fails past MaxPayload; these bodies are far below.
	h.batch.AppendFrame(wire.Header{Op: hd.Op, Flags: flags, Seq: hd.Seq}, body) //nolint:errcheck
}
