package lapclient

import (
	"bufio"
	"errors"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/wire"
)

// reply is how a scripted server answers one request: with an empty
// success frame after a delay, never, with a header that promises a
// payload the server never sends, with an error frame carrying refuse,
// or by closing the connection (sever).
type reply struct {
	after  time.Duration
	never  bool
	stall  bool
	refuse string
	sever  bool
}

// scriptedServer listens on loopback and speaks just enough of the
// protocol to script a server's timing: it answers the handshake ping
// at once and every other request as answer says.
func scriptedServer(t *testing.T, answer func(h wire.Header) reply) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go serveScripted(conn, answer)
		}
	}()
	return ln.Addr().String()
}

// serveScripted is one scripted connection's request loop; it returns
// when the client goes away.
func serveScripted(conn net.Conn, answer func(h wire.Header) reply) {
	defer conn.Close()
	br := bufio.NewReader(conn)
	var wmu sync.Mutex
	respond := func(h wire.Header, flags wire.Flags, payload []byte, stall bool) {
		frame := make([]byte, wire.HeaderSize+len(payload))
		wire.PutHeader(frame, wire.Header{Op: h.Op, Flags: flags, Seq: h.Seq, PayloadLen: uint32(len(payload))})
		copy(frame[wire.HeaderSize:], payload)
		if stall {
			frame = frame[:wire.HeaderSize]
		}
		wmu.Lock()
		conn.Write(frame) //nolint:errcheck // a gone client ends the read loop
		wmu.Unlock()
	}
	var scratch [wire.HeaderSize]byte
	for {
		h, err := wire.ReadHeader(br, scratch[:])
		if err != nil {
			return
		}
		if _, err := wire.ReadPayload(br, h, nil); err != nil {
			return
		}
		if h.Op == wire.OpPing {
			respond(h, wire.FlagOK, []byte(`{"alg":"scripted","block_size":128}`), false)
			continue
		}
		switch r := answer(h); {
		case r.never:
		case r.sever:
			return
		case r.refuse != "":
			respond(h, 0, []byte(r.refuse), false)
		case r.stall:
			respond(h, wire.FlagOK, make([]byte, 8), true)
		case r.after == 0:
			respond(h, wire.FlagOK, nil, false)
		default:
			go func() {
				time.Sleep(r.after)
				respond(h, wire.FlagOK, nil, false)
			}()
		}
	}
}

// TestCallTimeoutSevers: against a server that reads requests and
// never answers, every call on a connection with a call timeout d
// fails with ErrDeadline after more than d and within 1.5 d (plus
// scheduling slack); the connection is then dead, a further call fails
// at once, and once it is closed no goroutine of it is left.
func TestCallTimeoutSevers(t *testing.T) {
	const (
		d       = 40 * time.Millisecond
		slack   = 20 * time.Millisecond // goroutine wake-ups, -race
		callers = 4
	)
	addr := scriptedServer(t, func(wire.Header) reply { return reply{never: true} })
	base := runtime.NumGoroutine()
	c, err := DialConn(addr, callers)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	c.SetCallTimeout(d)
	// Call a quarter of d later, between two ticks of a watchdog that
	// ticks every d/2 from now: a call that registered right after a
	// tick would pass the lower bound with a tick too few counted.
	time.Sleep(d / 4)

	errs := make([]error, callers)
	took := make([]time.Duration, callers)
	fanOut(t, callers, func(g int) {
		start := time.Now()
		errs[g] = c.Write(1, blockdev.BlockNo(g), 1, nil)
		took[g] = time.Since(start)
	})
	for g := range errs {
		if !errors.Is(errs[g], ErrDeadline) {
			t.Errorf("caller %d: err %v, want one wrapping ErrDeadline", g, errs[g])
		}
		if took[g] < d || took[g] > d*3/2+slack {
			t.Errorf("caller %d failed after %v, want within (%v, %v]", g, took[g], d, d*3/2+slack)
		}
	}
	if !c.Dead() {
		t.Error("connection not dead after its calls timed out")
	}
	start := time.Now()
	if err := c.Write(1, 0, 1, nil); !errors.Is(err, ErrDeadline) {
		t.Errorf("call on the dead connection: err %v, want one wrapping ErrDeadline", err)
	}
	if waited := time.Since(start); waited > slack {
		t.Errorf("call on the dead connection took %v", waited)
	}

	c.Close()
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > base; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines 2 s after Close, %d before the dial", runtime.NumGoroutine(), base)
		}
	}
}

// TestCallTimeoutSparesAnsweredCalls: a connection with a call
// timeout d carries calls for ten watchdog periods (d/2 each), one of
// them answered only after 15 ms, longer than a period; none fails.
func TestCallTimeoutSparesAnsweredCalls(t *testing.T) {
	const (
		d        = 20 * time.Millisecond
		slow     = 15 * time.Millisecond
		slowFile = 7
	)
	addr := scriptedServer(t, func(h wire.Header) reply {
		if h.File == slowFile {
			return reply{after: slow}
		}
		return reply{}
	})
	c, err := DialConn(addr, 4)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	c.SetCallTimeout(d)

	var calls [2]int
	var errs [2]error
	fanOut(t, 2, func(g int) {
		if g == 1 {
			// The slow call, registered a few periods in.
			time.Sleep(3 * d / 2)
			start := time.Now()
			errs[g] = c.Write(slowFile, 0, 1, nil)
			if took := time.Since(start); errs[g] == nil && took < slow {
				t.Errorf("slow call answered after %v, want at least %v", took, slow)
			}
			calls[g]++
			return
		}
		for start := time.Now(); time.Since(start) < 5*d; calls[g]++ {
			if errs[g] = c.Write(1, blockdev.BlockNo(calls[g]), 1, nil); errs[g] != nil {
				return
			}
			time.Sleep(time.Millisecond)
		}
	})
	for g, err := range errs {
		if err != nil {
			t.Errorf("caller %d failed after %d calls: %v", g, calls[g], err)
		}
	}
	if c.Dead() {
		t.Error("connection severed with every call answered")
	}
}

// TestCallTimeoutSeversMidPayload: a response whose header arrives and
// whose payload never does still fails its call within the bound —
// the reader has taken the call, so the watchdog counts it apart.
func TestCallTimeoutSeversMidPayload(t *testing.T) {
	const (
		d     = 40 * time.Millisecond
		slack = 20 * time.Millisecond
	)
	addr := scriptedServer(t, func(wire.Header) reply { return reply{stall: true} })
	c, err := DialConn(addr, 1)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	c.SetCallTimeout(d)
	time.Sleep(d / 4)
	var took time.Duration
	fanOut(t, 1, func(int) {
		start := time.Now()
		_, _, err = c.Do(Req(wire.OpRead, wire.FlagWantData, 1, 0, 1), nil, [][]byte{make([]byte, 8)})
		took = time.Since(start)
	})
	if !errors.Is(err, ErrDeadline) {
		t.Errorf("err %v, want one wrapping ErrDeadline", err)
	}
	if took < d || took > d*3/2+slack {
		t.Errorf("failed after %v, want within (%v, %v]", took, d, d*3/2+slack)
	}
}
