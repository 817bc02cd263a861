package lapcache

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/wire"
)

// TestHotpathCoalescedPipeline sends a burst of pipelined reads in a
// single TCP segment — the shape that makes the server's
// drain-the-ready-queue latch hold responses and flush them as one
// vectored write — and checks every response comes back in order,
// framed, and bit-exact: the latch changes syscall count, never bytes.
// The longer burst overruns maxCoalesce, forcing a flush in the middle
// of the ready queue.
func TestHotpathCoalescedPipeline(t *testing.T) {
	const blockSize = 512
	for _, tc := range []struct {
		name  string
		burst int
	}{{"coalesce", 32}, {"overMaxCoalesce", 2*maxCoalesce + 7}} {
		t.Run(tc.name, func(t *testing.T) {
			_, addr := startTestServer(t, Config{
				Alg: core.SpecNP, BlockSize: blockSize, CacheBlocks: 4 * tc.burst,
			}, nil)
			c := dialRaw(t, addr)

			// Build the whole burst and write it in one call, so the
			// server's reader sees "complete next request buffered"
			// after every dispatch until the queue drains.
			var reqs bytes.Buffer
			for i := 0; i < tc.burst; i++ {
				if _, err := reqs.Write(frameBytes(wire.Header{
					Op: wire.OpRead, Flags: wire.FlagWantData,
					Seq: uint32(i + 1), File: 9, Offset: int32(i), Size: 1,
				}, nil)); err != nil {
					t.Fatalf("build burst: %v", err)
				}
			}
			if _, err := c.Write(reqs.Bytes()); err != nil {
				t.Fatalf("send burst: %v", err)
			}
			for i := 0; i < tc.burst; i++ {
				h, payload := c.recv(t, uint32(i+1))
				if h.Flags&wire.FlagOK == 0 {
					t.Fatalf("seq %d: refused: %s", i+1, payload)
				}
				checkPattern(t, payload, blockSize, 9, blockdev.BlockNo(i), 1)
			}
			if c.br.Buffered() != 0 {
				t.Fatalf("%d stray bytes after the burst", c.br.Buffered())
			}
		})
	}
}

// TestHotpathShardStress pins the sharded accept path: with Shards >
// 1, concurrent connections are accepted by different accept loops,
// every one is served correctly, and the one close-reason ledger they
// share records exactly one clean EOF per connection. Run under -race
// (make race), this is the accept loops' data-race probe.
func TestHotpathShardStress(t *testing.T) {
	const (
		blockSize = 512
		nconns    = 16
		reads     = 64
	)
	srv, addr := startTestServer(t, Config{
		Alg: core.SpecNP, BlockSize: blockSize, CacheBlocks: 256,
	}, func(s *Server) { s.Shards = 4 })

	var wg sync.WaitGroup
	errs := make(chan error, nconns)
	for c := 0; c < nconns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			br := bufio.NewReader(conn)
			var scratch [wire.HeaderSize]byte
			want := make([]byte, blockSize)
			f := blockdev.FileID(c + 1)
			for i := 0; i < reads; i++ {
				if _, err := conn.Write(frameBytes(wire.Header{
					Op: wire.OpRead, Flags: wire.FlagWantData,
					Seq: uint32(i + 1), File: int32(f), Offset: int32(i % 8), Size: 1,
				}, nil)); err != nil {
					errs <- err
					return
				}
				h, err := wire.ReadHeader(br, scratch[:])
				if err != nil {
					errs <- err
					return
				}
				if h.Seq != uint32(i+1) || h.Flags&wire.FlagOK == 0 {
					errs <- fmt.Errorf("conn %d seq %d: header %+v", c, i+1, h)
					return
				}
				payload, err := wire.ReadPayload(br, h, nil)
				if err != nil {
					errs <- err
					return
				}
				FillPattern(blockdev.BlockID{File: f, Block: blockdev.BlockNo(i % 8)}, want)
				if !bytes.Equal(payload, want) {
					errs <- fmt.Errorf("conn %d seq %d: payload corrupted", c, i+1)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	waitClose(t, srv, CloseEOF, nconns)
	assertNoClose(t, srv, CloseMidFrame, CloseProtocol, CloseTransport, CloseWrite)
}

// TestHotpathTornVectoredWrite points a faultinject partial-write
// rule at the writev site. The injected tear truncates the response
// mid-header and severs the connection; the framing contract is that
// the client observes a mid-frame close — a short read, never a
// header that parses — and the server books the connection under
// write_error. This is the same conn.send/KindPartial rule the chaos
// plan injects (internal/chaos/plan.go), so the full invariant audit
// exercises the vectored path continuously; this test pins the
// mechanism in isolation.
func TestHotpathTornVectoredWrite(t *testing.T) {
	const blockSize = 512
	inj, err := faultinject.New(faultinject.Plan{
		Seed: 1,
		Rules: []faultinject.Rule{{
			Site: faultinject.SiteConnSend, Kind: faultinject.KindPartial, P: 1,
		}},
	})
	if err != nil {
		t.Fatalf("injector: %v", err)
	}
	srv, addr := startTestServer(t, Config{
		Alg: core.SpecNP, BlockSize: blockSize, CacheBlocks: 16,
	}, func(s *Server) {
		s.ConnWrap = func(c net.Conn) net.Conn { return inj.WrapConn(c, "accept@torn") }
	})
	c := dialRaw(t, addr)

	if _, err := c.Write(frameBytes(wire.Header{
		Op: wire.OpRead, Flags: wire.FlagWantData, Seq: 1, File: 2, Size: 1,
	}, nil)); err != nil {
		t.Fatalf("write request: %v", err)
	}
	// The response header is torn partway through: the client must see
	// a short read (mid-frame close), never a parseable header.
	var hdr [wire.HeaderSize]byte
	n, err := io.ReadFull(c.br, hdr[:])
	if err == nil {
		if h, perr := wire.ParseHeader(hdr[:]); perr == nil {
			t.Fatalf("torn write delivered a parseable header: %+v", h)
		}
		t.Fatalf("torn write delivered %d header bytes that fail structural parse — stream corrupt, not framed", n)
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF) {
		t.Fatalf("mid-frame close surfaced as %v (%d bytes), want EOF/unexpected EOF", err, n)
	}
	if n >= wire.HeaderSize {
		t.Fatalf("read a whole header (%d bytes) despite the tear", n)
	}
	waitClose(t, srv, CloseWrite, 1)
	assertNoClose(t, srv, CloseMidFrame, CloseProtocol)
}
