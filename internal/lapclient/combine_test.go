package lapclient

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/lapcache"
	"repro/internal/wire"
)

// flushCounts reads the connection's writev and yield counters.
func (c *Conn) flushCounts() (writes, yields uint64) {
	c.qmu.Lock()
	defer c.qmu.Unlock()
	return c.written, c.yields
}

// fanOut runs body(g) on n goroutines and fails the test if they have
// not all returned within the deadline: a hung call is a failure, not
// a test timeout.
func fanOut(t *testing.T, n int, body func(g int)) {
	t.Helper()
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			body(g)
		}(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("callers still blocked after 30 s")
	}
}

// fillBlock is the server-side fill pattern of one block.
func fillBlock(f blockdev.FileID, b blockdev.BlockNo, size int) []byte {
	want := make([]byte, size)
	lapcache.FillPattern(blockdev.BlockID{File: f, Block: b}, want)
	return want
}

// writePayload is what goroutine g writes to its block i: distinct
// from every other write and from every fill pattern.
func writePayload(g, i, size int) []byte {
	p := make([]byte, size)
	for k := range p {
		p[k] = byte(g*31 + i*7 + k + 1)
	}
	return p
}

// TestCombinedFlushIntegrity: sixteen callers share one Conn's write
// side, mixing reads of distinct blocks with writes of distinct
// payloads, so batches carry several callers' headers and payloads at
// once. Every read must land its own block's bytes, and every write
// must read back afterwards.
func TestCombinedFlushIntegrity(t *testing.T) {
	const (
		callers   = 16
		perCaller = 200
		blockSize = 512
	)
	addr := startServer(t, lapcache.Config{
		Alg: core.SpecNP, BlockSize: blockSize, CacheBlocks: 2 * callers * perCaller,
	})
	c, err := DialConn(addr, callers)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	fanOut(t, callers, func(g int) {
		f := blockdev.FileID(g + 1)
		dst := [][]byte{make([]byte, blockSize)}
		for i := 0; i < perCaller; i++ {
			if i%2 == 1 {
				if err := c.Write(f, blockdev.BlockNo(i), 1, writePayload(g, i, blockSize)); err != nil {
					t.Errorf("caller %d write %d: %v", g, i, err)
					return
				}
				continue
			}
			// Even blocks are never written: they read as the fill pattern.
			if _, err := c.ReadInto(f, blockdev.BlockNo(i), 1, dst); err != nil {
				t.Errorf("caller %d read %d: %v", g, i, err)
				return
			}
			if !bytes.Equal(dst[0], fillBlock(f, blockdev.BlockNo(i), blockSize)) {
				t.Errorf("caller %d read %d: another block's bytes", g, i)
				return
			}
		}
	})
	if t.Failed() {
		return
	}
	dst := [][]byte{make([]byte, blockSize)}
	for g := 0; g < callers; g++ {
		for i := 1; i < perCaller; i += 2 {
			f := blockdev.FileID(g + 1)
			if _, err := c.ReadInto(f, blockdev.BlockNo(i), 1, dst); err != nil {
				t.Fatalf("read back %d/%d: %v", f, i, err)
			}
			if !bytes.Equal(dst[0], writePayload(g, i, blockSize)) {
				t.Fatalf("block %d/%d does not read back what caller %d wrote", f, i, g)
			}
		}
	}
}

// TestCombinedFlushCombines: eight pipelined callers on one Conn must
// share writevs — more than 1.5 frames per writev on average — while a
// lone depth-1 caller takes exactly one writev per frame and never
// yields. The parent wrote every frame with its own write.
func TestCombinedFlushCombines(t *testing.T) {
	const (
		blockSize = 512
		files     = 8
		blocks    = 64
		reads     = 20_000
	)
	eng, _, addr := startServerEngine(t, lapcache.Config{
		Alg: core.SpecNP, BlockSize: blockSize, CacheBlocks: 2 * files * blocks,
	})
	for f := 1; f <= files; f++ {
		eng.Preload(blockdev.FileID(f), 0, blocks, false)
	}

	t.Run("depth-1", func(t *testing.T) {
		c, err := DialConn(addr, 1)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		defer c.Close()
		dst := [][]byte{make([]byte, blockSize)}
		w0, y0 := c.flushCounts()
		const n = 2000
		for i := 0; i < n; i++ {
			if _, err := c.ReadInto(1, blockdev.BlockNo(i%blocks), 1, dst); err != nil {
				t.Fatalf("read %d: %v", i, err)
			}
		}
		w1, y1 := c.flushCounts()
		if w1-w0 != n || y1 != y0 {
			t.Errorf("%d frames took %d writevs and %d yields, want %d and 0", n, w1-w0, y1-y0, n)
		}
	})

	t.Run("pipelined", func(t *testing.T) {
		const callers = files
		c, err := DialConn(addr, 2*callers)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		defer c.Close()
		w0, y0 := c.flushCounts()
		fanOut(t, callers, func(g int) {
			dst := [][]byte{make([]byte, blockSize)}
			for i := 0; i < reads/callers; i++ {
				if _, err := c.ReadInto(blockdev.FileID(g+1), blockdev.BlockNo(i%blocks), 1, dst); err != nil {
					t.Errorf("caller %d read %d: %v", g, i, err)
					return
				}
			}
		})
		w1, y1 := c.flushCounts()
		perFlush := float64(reads) / float64(w1-w0)
		t.Logf("%d frames in %d writevs (%.2f per writev), %d yields", reads, w1-w0, perFlush, y1-y0)
		if perFlush <= 1.5 {
			t.Errorf("%.2f frames per writev, want more than 1.5", perFlush)
		}
	})
}

// tearAfter wraps a connection so that its write after the first n is
// torn: the delay rule's 1 ns stall spends its budget on those (the
// handshake included), then the partial rule sends half of the next
// one and severs the connection.
func tearAfter(t *testing.T, n int64) ConnWrap {
	t.Helper()
	in, err := faultinject.New(faultinject.Plan{Rules: []faultinject.Rule{
		{Site: faultinject.SiteConnSend, Kind: faultinject.KindDelay, P: 1, Count: n, Delay: time.Nanosecond},
		{Site: faultinject.SiteConnSend, Kind: faultinject.KindPartial, P: 1, Count: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	return func(c net.Conn) net.Conn { return in.WrapConn(c, "conn") }
}

// tornLoad is eight callers' mixed reads and writes of distinct blocks
// through c. Every call must come back: nil with its own block's bytes,
// or a transport error (never a *ServerError: the server never saw a
// bad frame it could answer). It returns how many calls failed.
func tornLoad(t *testing.T, c *Conn, blockSize int) int64 {
	var failed atomic.Int64
	fanOut(t, 8, func(g int) {
		f := blockdev.FileID(g + 1)
		dst := [][]byte{make([]byte, blockSize)}
		for i := 0; i < 50; i++ {
			var err error
			if i%4 == 3 {
				_, _, err = c.Do(Req(wire.OpWrite, 0, f, blockdev.BlockNo(i), 1), writePayload(g, i, blockSize), nil)
			} else {
				_, _, err = c.Do(Req(wire.OpRead, wire.FlagWantData, f, blockdev.BlockNo(i), 1), nil, dst)
				if err == nil && !bytes.Equal(dst[0], fillBlock(f, blockdev.BlockNo(i), blockSize)) {
					t.Errorf("caller %d read %d: another call's bytes", g, i)
					return
				}
			}
			if err != nil {
				var se *ServerError
				if errors.As(err, &se) {
					t.Errorf("caller %d op %d: server refusal %v after a torn write", g, i, err)
					return
				}
				failed.Add(1)
			}
		}
	})
	return failed.Load()
}

// TestTornFlushSeversConn: a write torn mid-batch must fail the
// connection — every queued and in-flight call gets a transport error,
// none hangs and none receives another call's bytes — and mark the
// Conn dead, so its owner knows to redial.
func TestTornFlushSeversConn(t *testing.T) {
	const blockSize = 256
	addr := startServer(t, lapcache.Config{
		Alg: core.SpecNP, BlockSize: blockSize, CacheBlocks: 1024,
	})

	t.Run("conn", func(t *testing.T) {
		c, err := DialConnWith(addr, 8, tearAfter(t, 40))
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		defer c.Close()
		if failed := tornLoad(t, c, blockSize); failed == 0 {
			t.Error("no call failed: the write was never torn")
		}
		if !c.Dead() {
			t.Error("connection still live after a torn write")
		}
	})

	// A write error that leaves the socket open — a torn frame on a
	// stream the kernel still carries — must sever all the same: the
	// next frame would follow half a frame.
	t.Run("error-without-close", func(t *testing.T) {
		var fail atomic.Bool
		c, err := DialConnWith(addr, 8, func(nc net.Conn) net.Conn { return &tearOnce{Conn: nc, arm: &fail} })
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		defer c.Close()
		fail.Store(true)
		if _, _, err := c.Do(Req(wire.OpRead, 0, 1, 0, 1), nil, nil); err == nil {
			t.Fatal("read over a torn write succeeded")
		}
		if !c.Dead() {
			t.Error("connection still live after a write error")
		}
	})
}

// tearOnce writes half of the first frame after arm is set and reports
// an error, leaving the socket open.
type tearOnce struct {
	net.Conn
	arm *atomic.Bool
}

func (c *tearOnce) Write(p []byte) (int, error) {
	if c.arm.CompareAndSwap(true, false) {
		n, _ := c.Conn.Write(p[:len(p)/2])
		return n, errors.New("torn write")
	}
	return c.Conn.Write(p)
}
