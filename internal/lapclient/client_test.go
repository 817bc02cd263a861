package lapclient

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/lapcache"
	"repro/internal/wire"
	"repro/internal/workload"
)

// startServer brings up an engine + server on a loopback port and
// returns its address.
func startServer(t *testing.T, cfg lapcache.Config) string {
	t.Helper()
	_, _, addr := startServerEngine(t, cfg)
	return addr
}

// startServerEngine is startServer for tests that audit the server
// side afterwards. The cleanup is idempotent with an in-test teardown.
func startServerEngine(t *testing.T, cfg lapcache.Config) (*lapcache.Engine, *lapcache.Server, string) {
	t.Helper()
	if cfg.Store == nil {
		cfg.Store = lapcache.NewMemStore(cfg.BlockSize, 0)
	}
	e, err := lapcache.New(cfg)
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	srv := lapcache.NewServer(e)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		srv.Close()
		e.Shutdown()
	})
	return e, srv, ln.Addr().String()
}

// read runs one read exchange on c; data is nil unless wantData.
func read(c *Conn, f blockdev.FileID, off blockdev.BlockNo, nblocks int32, wantData bool) (data []byte, hit bool, err error) {
	var flags wire.Flags
	if wantData {
		flags = wire.FlagWantData
	}
	rh, data, err := c.Do(Req(wire.OpRead, flags, f, off, nblocks), nil, nil)
	return data, rh.Flags&wire.FlagHit != 0, err
}

func TestClientBasicOps(t *testing.T) {
	addr := startServer(t, lapcache.Config{
		Alg: core.SpecNP, BlockSize: 256, CacheBlocks: 64,
	})
	c, err := DialConn(addr, 0)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	info, err := Ping(c)
	if err != nil {
		t.Fatalf("ping: %v", err)
	}
	if info.Alg != "NP" || info.BlockSize != 256 || info != c.Info() {
		t.Errorf("ping = %+v, handshake = %+v, want NP/256 from both", info, c.Info())
	}

	payload := bytes.Repeat([]byte{0x7E}, 256)
	if err := c.Write(2, 3, 1, payload); err != nil {
		t.Fatalf("write: %v", err)
	}
	data, hit, err := read(c, 2, 3, 1, true)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !hit {
		t.Error("read of written block missed")
	}
	if !bytes.Equal(data, payload) {
		t.Error("read back wrong data")
	}
	if err := c.CloseFile(2); err != nil {
		t.Fatalf("close: %v", err)
	}
	snap, err := Stats(c)
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if snap.Writes != 1 || snap.DemandHits != 1 {
		t.Errorf("server counters: %s", snap)
	}
}

// TestReplayCharismaEndToEnd is the acceptance run: a synthetic
// CHARISMA trace replayed through a live lapcached with linear
// aggressive prefetching on. It must finish, report timeliness
// counters, and keep every file's outstanding-prefetch high-water at
// exactly 1.
func TestReplayCharismaEndToEnd(t *testing.T) {
	p := experiment.TinyScale().Charisma
	tr, err := workload.GenerateCharisma(p)
	if err != nil {
		t.Fatalf("generate trace: %v", err)
	}

	const blockSize = 512
	addr := startServer(t, lapcache.Config{
		Alg:          core.SpecLnAgrISPPM1,
		BlockSize:    blockSize,
		CacheBlocks:  4096,
		Workers:      8,
		QueueLen:     128,
		FileBlocks:   tr.FileBlocks,
		StrictLinear: true,
	})

	res, err := ReplayTrace([]string{addr}, tr, ReplayOptions{})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if res.Requests != tr.TotalSteps() {
		t.Errorf("replayed %d requests, trace has %d", res.Requests, tr.TotalSteps())
	}
	if res.Reads == 0 {
		t.Fatal("trace replay issued no reads")
	}
	if r := res.HitRatio(); r < 0 || r > 1 {
		t.Errorf("hit ratio %f out of range", r)
	}

	c, err := DialConn(addr, 0)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	snap, err := Stats(c)
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if snap.DemandHits+snap.DemandMisses == 0 {
		t.Fatal("server saw no demand reads")
	}
	if snap.PrefetchIssued == 0 {
		t.Error("prefetching never engaged during the replay")
	}
	if snap.PrefetchTimely+snap.PrefetchLate+snap.PrefetchWasted+snap.PrefetchUnused == 0 {
		t.Errorf("no timeliness classification recorded: %s", snap)
	}
	if snap.MaxFileOutstandingHW != 1 {
		t.Errorf("max per-file outstanding high-water = %d, want exactly 1 in linear mode",
			snap.MaxFileOutstandingHW)
	}
	if snap.LinearViolations != 0 {
		t.Errorf("%d linear violations", snap.LinearViolations)
	}
	t.Logf("replay: %d reqs in %v, client hit ratio %.3f; server: %s",
		res.Requests, res.Elapsed, res.HitRatio(), snap)
}

// TestProtocolNegotiationMatrix pins what happens when builds of
// different vintage meet. The version byte of the first header is the
// whole negotiation:
//
//   - old JSON client ↔ new server: the client's line is not a frame;
//     the server hangs up at once, sending nothing, rather than leaving
//     both ends waiting on each other.
//   - new client ↔ new server: the handshake ping succeeds and reports
//     the server's configuration.
//   - a client with another header version: refused the same way.
//   - same header version, unknown op or flag: an error frame, and the
//     connection lives on.
func TestProtocolNegotiationMatrix(t *testing.T) {
	cfg := lapcache.Config{Alg: core.SpecNP, BlockSize: 128, CacheBlocks: 32}

	// refused sends first on a fresh connection and expects the server
	// to close it without a byte in response.
	refused := func(t *testing.T, first []byte) {
		t.Helper()
		conn, err := net.Dial("tcp", startServer(t, cfg))
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		defer conn.Close()
		if _, err := conn.Write(first); err != nil {
			t.Fatalf("send: %v", err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		n, err := io.Copy(io.Discard, conn)
		var ne net.Error
		if n != 0 || (errors.As(err, &ne) && ne.Timeout()) {
			t.Fatalf("server answered %d bytes, then %v; want a prompt, silent close", n, err)
		}
	}

	t.Run("old-client-new-server", func(t *testing.T) {
		refused(t, []byte("{\"op\":\"ping\"}\n"))
	})

	t.Run("new-client-new-server", func(t *testing.T) {
		addr := startServer(t, cfg)
		c, err := DialConn(addr, 0)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		defer c.Close()
		if info := c.Info(); info.Alg != "NP" || info.BlockSize != 128 {
			t.Errorf("handshake = %+v", info)
		}
	})

	t.Run("other-version-client-new-server", func(t *testing.T) {
		var hdr [wire.HeaderSize]byte
		wire.PutHeader(hdr[:], wire.Header{Op: wire.OpPing, Seq: 1})
		hdr[2] = wire.Version + 1
		refused(t, hdr[:])
	})

	// Version skew within one header version: a peer from a future
	// build may send ops or flags this server has never heard of. The
	// server must answer each with a clean error frame and keep the
	// connection alive — never wedge it — so a mixed-version cluster
	// fails per request instead of per connection.
	t.Run("future-op-vs-new-server", func(t *testing.T) {
		addr := startServer(t, cfg)
		c, err := DialConn(addr, 0)
		if err != nil {
			t.Fatalf("binary dial: %v", err)
		}
		defer c.Close()

		// Op 6 is the retired ownership query: unknown like any future op.
		var se *ServerError
		for _, op := range []wire.Op{6, 200} {
			_, _, err = c.Do(wire.Header{Op: op}, nil, nil)
			if !errors.As(err, &se) {
				t.Fatalf("op %d: err = %v, want *ServerError", op, err)
			}
			if se.Op != op {
				t.Errorf("error frame echoes op %d, want %d", se.Op, op)
			}
		}

		_, _, err = c.Do(wire.Header{Op: wire.OpPing, Flags: wire.Flags(0x80)}, nil, nil)
		if !errors.As(err, &se) {
			t.Fatalf("future flags: err = %v, want *ServerError", err)
		}
		// Bits 4 and 5 are retired (a replica install and its ack): a
		// peer write carrying either is refused after its payload is
		// consumed, so the stream stays framed.
		for _, fl := range []wire.Flags{1 << 4, 1 << 5} {
			_, _, err = c.Do(Req(wire.OpWrite, wire.FlagPeer|fl, 1, 0, 1), make([]byte, cfg.BlockSize), nil)
			if !errors.As(err, &se) {
				t.Fatalf("retired flag %#x: err = %v, want *ServerError", uint8(fl), err)
			}
		}

		// The connection survives every rejection.
		if _, err := Ping(c); err != nil {
			t.Fatalf("ping after rejected frames: %v", err)
		}
	})

	// Cluster ops against a single-node (non-clustered) server: a
	// peer-flagged write and read are served locally, without
	// disturbing the connection.
	t.Run("cluster-ops-vs-unclustered-server", func(t *testing.T) {
		addr := startServer(t, cfg)
		c, err := DialConn(addr, 0)
		if err != nil {
			t.Fatalf("binary dial: %v", err)
		}
		defer c.Close()

		if _, _, err := c.Do(Req(wire.OpWrite, wire.FlagPeer, 3, 0, 1), nil, nil); err != nil {
			t.Fatalf("peer write: %v", err)
		}
		dst := make([]byte, cfg.BlockSize)
		rh, _, err := c.Do(Req(wire.OpRead, wire.FlagWantData|wire.FlagPeer, 3, 0, 1), nil, [][]byte{dst})
		if err != nil {
			t.Fatalf("peer read: %v", err)
		}
		if rh.Flags&wire.FlagHit == 0 {
			t.Error("peer read of just-written block missed")
		}
		want := make([]byte, cfg.BlockSize)
		lapcache.FillPattern(blockdev.BlockID{File: 3, Block: 0}, want)
		if !bytes.Equal(dst, want) {
			t.Error("peer read payload wrong")
		}
		if _, _, err := c.Do(Req(wire.OpClose, wire.FlagPeer, 3, 0, 0), nil, nil); err != nil {
			t.Fatalf("peer close: %v", err)
		}
	})
}

// TestBinaryConnDataIntegrity pushes real payloads through the framed
// protocol: what a Conn writes must come back byte-identical, and
// unwritten blocks must arrive as the server-side fill pattern.
func TestBinaryConnDataIntegrity(t *testing.T) {
	const blockSize = 512
	addr := startServer(t, lapcache.Config{
		Alg: core.SpecNP, BlockSize: blockSize, CacheBlocks: 64,
	})
	c, err := DialConn(addr, 0)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	payload := make([]byte, 3*blockSize)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	if err := c.Write(9, 2, 3, payload); err != nil {
		t.Fatalf("write: %v", err)
	}
	data, hit, err := read(c, 9, 2, 3, true)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !hit {
		t.Error("read of just-written blocks missed")
	}
	if !bytes.Equal(data, payload) {
		t.Error("binary read returned different bytes than written")
	}

	data, _, err = read(c, 9, 100, 1, true)
	if err != nil {
		t.Fatalf("read unwritten: %v", err)
	}
	want := make([]byte, blockSize)
	lapcache.FillPattern(blockdev.BlockID{File: 9, Block: 100}, want)
	if !bytes.Equal(data, want) {
		t.Error("unwritten block did not arrive as the fill pattern")
	}

	// Metadata-only read: no payload, but the hit flag still flows.
	data, hit, err = read(c, 9, 2, 3, false)
	if err != nil {
		t.Fatalf("read nodata: %v", err)
	}
	if len(data) != 0 {
		t.Errorf("nodata read returned %d bytes", len(data))
	}
	if !hit {
		t.Error("nodata read of cached blocks missed")
	}
}

// TestPipelinedConnConcurrency hammers one Conn from many goroutines:
// sequence matching must route every response to its caller.
func TestPipelinedConnConcurrency(t *testing.T) {
	const blockSize = 256
	addr := startServer(t, lapcache.Config{
		Alg: core.SpecNP, BlockSize: blockSize, CacheBlocks: 256,
	})
	c, err := DialConn(addr, 8)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			f := blockdev.FileID(g + 1)
			for i := 0; i < 20; i++ {
				off := blockdev.BlockNo(i % 8)
				data, _, err := read(c, f, off, 1, true)
				if err != nil {
					errs <- err
					return
				}
				want := make([]byte, blockSize)
				lapcache.FillPattern(blockdev.BlockID{File: f, Block: off}, want)
				if !bytes.Equal(data, want) {
					errs <- fmt.Errorf("goroutine %d got bytes for a different block", g)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestReplayTraceDataIntegrity replays a tiny hand-made trace with
// verification that block contents survive the write → cache → read
// path through the wire.
func TestReplayTraceDataIntegrity(t *testing.T) {
	addr := startServer(t, lapcache.Config{
		Alg: core.SpecNP, BlockSize: 128, CacheBlocks: 16,
	})
	c, err := DialConn(addr, 0)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	// Unwritten blocks come back as the server-side fill pattern.
	data, _, err := read(c, 6, 4, 1, true)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	want := make([]byte, 128)
	lapcache.FillPattern(blockdev.BlockID{File: 6, Block: 4}, want)
	if !bytes.Equal(data, want) {
		t.Error("unwritten block did not arrive as the fill pattern")
	}
}
