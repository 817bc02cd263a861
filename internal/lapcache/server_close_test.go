package lapcache

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/wire"
)

// waitClose polls the server's close ledger until reason reaches want
// or the deadline passes.
func waitClose(t *testing.T, s *Server, reason CloseReason, want uint64) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		if got := s.CloseCounts()[reason]; got >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("close reason %q never reached %d; ledger: %v", reason, want, s.CloseCounts())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// assertNoClose fails if the server recorded any of the given reasons.
func assertNoClose(t *testing.T, s *Server, reasons ...CloseReason) {
	t.Helper()
	counts := s.CloseCounts()
	for _, r := range reasons {
		if counts[r] != 0 {
			t.Errorf("close reason %q recorded %d times; ledger: %v", r, counts[r], counts)
		}
	}
}

// pingFrame is one encoded ping request.
func pingFrame() []byte {
	var hdr [wire.HeaderSize]byte
	wire.PutHeader(hdr[:], wire.Header{Op: wire.OpPing, Seq: 1})
	return hdr[:]
}

// TestCloseReasonEOF: a client that finishes its business and hangs up
// cleanly is an EOF — never an idle-timeout, never a mid-frame tear.
func TestCloseReasonEOF(t *testing.T) {
	srv, addr := startTestServer(t, Config{
		Alg: core.SpecNP, BlockSize: 128, CacheBlocks: 16,
	}, func(s *Server) { s.IdleTimeout = time.Second })

	c := dialRaw(t, addr)
	if h, msg := c.do(t, wire.Header{Op: wire.OpPing, Seq: 1}, nil); h.Flags&wire.FlagOK == 0 {
		t.Fatalf("ping: %s", msg)
	}
	c.Close()

	waitClose(t, srv, CloseEOF, 1)
	assertNoClose(t, srv, CloseIdle, CloseMidFrame, CloseProtocol, CloseTransport)
}

// TestCloseReasonMidFrameJSON: an old JSON client cut off before it
// has sent even the bytes the frame prefix check needs cannot be told
// from any other partial header — a mid-frame tear, not an idle client,
// a clean EOF or (yet) a protocol error.
func TestCloseReasonMidFrameJSON(t *testing.T) {
	srv, addr := startTestServer(t, Config{
		Alg: core.SpecNP, BlockSize: 128, CacheBlocks: 16,
	}, func(s *Server) { s.IdleTimeout = time.Second })

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte(`{"o`)); err != nil {
		t.Fatal(err)
	}
	conn.Close()

	waitClose(t, srv, CloseMidFrame, 1)
	assertNoClose(t, srv, CloseIdle, CloseEOF, CloseProtocol)
}

// TestCloseReasonMidFrameBinary: a connection that dies inside a frame
// is a mid-frame tear — the drain path must name it distinctly, not
// file it under idle or clean EOF — wherever in the frame the cut
// falls, on the connection's first frame or a later one.
func TestCloseReasonMidFrameBinary(t *testing.T) {
	srv, addr := startTestServer(t, Config{
		Alg: core.SpecNP, BlockSize: 128, CacheBlocks: 16,
	}, nil)

	var torn [wire.HeaderSize]byte
	wire.PutHeader(torn[:], wire.Header{Op: wire.OpWrite, Size: 1, PayloadLen: 128})
	for i, tc := range []struct {
		name  string
		first bool // the cut frame is the connection's first
		bytes []byte
	}{
		{"inside the first header", true, pingFrame()[:wire.HeaderSize/2]},
		{"inside a later header", false, pingFrame()[:wire.HeaderSize/2]},
		{"complete header, payload never arrives", true, torn[:]},
	} {
		c := dialRaw(t, addr)
		if !tc.first {
			if h, msg := c.do(t, wire.Header{Op: wire.OpPing, Seq: 1}, nil); h.Flags&wire.FlagOK == 0 {
				t.Fatalf("%s: ping: %s", tc.name, msg)
			}
		}
		if _, err := c.Write(tc.bytes); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		c.Close()
		waitClose(t, srv, CloseMidFrame, uint64(i+1))
	}
	assertNoClose(t, srv, CloseIdle, CloseEOF, CloseProtocol, CloseTransport)
}

// TestCloseReasonIdleVsEOF: the idle reaper files its kills under
// idle-timeout, and ONLY the quiet connection lands there.
func TestCloseReasonIdleVsEOF(t *testing.T) {
	srv, addr := startTestServer(t, Config{
		Alg: core.SpecNP, BlockSize: 128, CacheBlocks: 16,
	}, func(s *Server) { s.IdleTimeout = 80 * time.Millisecond })

	quiet, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer quiet.Close()

	waitClose(t, srv, CloseIdle, 1)
	assertNoClose(t, srv, CloseMidFrame, CloseEOF, CloseTransport)
}

// TestCloseReasonShutdown: connections alive when the server drains
// are recorded as shutdown, not blamed on the client.
func TestCloseReasonShutdown(t *testing.T) {
	srv, addr := startTestServer(t, Config{
		Alg: core.SpecNP, BlockSize: 128, CacheBlocks: 16,
	}, nil)

	c := dialRaw(t, addr)
	if h, msg := c.do(t, wire.Header{Op: wire.OpPing, Seq: 1}, nil); h.Flags&wire.FlagOK == 0 {
		t.Fatalf("ping: %s", msg)
	}
	srv.Close()
	waitClose(t, srv, CloseShutdown, 1)
	assertNoClose(t, srv, CloseMidFrame, CloseEOF, CloseIdle, CloseTransport)
}

// TestCloseReasonProtocol: bytes that are not a frame end the
// connection promptly as a protocol error — no response bytes, no
// goroutine parked waiting for the rest of a header — on the first
// bytes of a connection as on a later frame. The server runs with no
// idle timeout, so only the prefix check can end these connections:
// the old client's JSON ping is shorter than a header and the client
// is itself waiting for an answer.
func TestCloseReasonProtocol(t *testing.T) {
	srv, addr := startTestServer(t, Config{
		Alg: core.SpecNP, BlockSize: 128, CacheBlocks: 16,
	}, nil)

	badVersion := pingFrame()
	badVersion[2] ^= 0x80
	for i, tc := range []struct {
		name  string
		first bool
		bytes []byte
	}{
		{"old client's JSON ping", true, []byte("{\"op\":\"ping\"}\n")},
		{"wrong version in the first header", true, badVersion},
		{"wrong version in a later header", false, badVersion},
		{"short garbage after a valid frame", false, []byte("GET / HTTP/1.1\r\n")},
	} {
		c := dialRaw(t, addr)
		if !tc.first {
			if h, msg := c.do(t, wire.Header{Op: wire.OpPing, Seq: 1}, nil); h.Flags&wire.FlagOK == 0 {
				t.Fatalf("%s: ping: %s", tc.name, msg)
			}
		}
		if _, err := c.Write(tc.bytes); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		// The client keeps its side open and waits, as a real one would:
		// the server must hang up first, having sent nothing.
		c.SetReadDeadline(time.Now().Add(3 * time.Second))
		n, err := io.Copy(io.Discard, c.br)
		var ne net.Error
		if n != 0 || (errors.As(err, &ne) && ne.Timeout()) {
			t.Fatalf("%s: server sent %d bytes, then %v; want a prompt, silent close", tc.name, n, err)
		}
		waitClose(t, srv, CloseProtocol, uint64(i+1))
	}
	assertNoClose(t, srv, CloseMidFrame, CloseTransport, CloseIdle)
}
