package main

import (
	"errors"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/wire"
)

// refLoad is the yardstick of host speed for the processor-bound live
// workloads (README, "Host time"): refConns loopback connections, on
// each a client that writes a 24-byte header and waits for the server's
// answer, a header and an 8 KiB block. No protocol, no cache, no client
// library, nothing of internal/ but two constants: what the workloads
// spend their time on (system calls, copies of a block, wake-ups) with
// none of the code they measure, so that no change to that code can
// move it.
type refLoad struct {
	ln    net.Listener
	conns []net.Conn
	wg    sync.WaitGroup // the servers

	mu  sync.Mutex
	err error // first failed exchange
}

const refConns = 8

// refLoadNominal is the exchanges a second the reference load makes on
// the machine this benchmark was calibrated on (2 virtual processors of
// a 2.1 GHz Xeon) in a run of hit_fanin. It only fixes the scale of the
// host-time metrics: they read as they would on that machine.
const refLoadNominal = 82_000

func startRefLoad() (*refLoad, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &refLoad{ln: ln}
	for i := 0; i < refConns; i++ {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			l.stop() //nolint:errcheck // already failing
			return nil, err
		}
		l.conns = append(l.conns, c)
		s, err := ln.Accept()
		if err != nil {
			l.stop() //nolint:errcheck // already failing
			return nil, err
		}
		l.wg.Add(1)
		go func() {
			defer l.wg.Done()
			defer s.Close() //nolint:errcheck // ends when the client closes
			req := make([]byte, wire.HeaderSize)
			resp := make([]byte, wire.HeaderSize+blockSize)
			for {
				if _, err := io.ReadFull(s, req); err != nil {
					return
				}
				if _, err := s.Write(resp); err != nil {
					return
				}
			}
		}()
	}
	return l, nil
}

func (l *refLoad) fail(err error) {
	l.mu.Lock()
	if l.err == nil {
		l.err = err
	}
	l.mu.Unlock()
}

// speed drives every connection for d and returns the host's speed:
// exchanges a second over refLoadNominal. A nil load says 1.
func (l *refLoad) speed(d time.Duration) float64 {
	if l == nil {
		return 1
	}
	var wg sync.WaitGroup
	rates := make([]float64, len(l.conns))
	for i, c := range l.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := make([]byte, wire.HeaderSize)
			resp := make([]byte, wire.HeaderSize+blockSize)
			start := time.Now()
			for n := 1; ; n++ {
				if _, err := c.Write(req); err != nil {
					l.fail(err)
					return
				}
				if _, err := io.ReadFull(c, resp); err != nil {
					l.fail(err)
					return
				}
				if el := time.Since(start); el >= d {
					rates[i] = float64(n) / el.Seconds()
					return
				}
			}
		}()
	}
	wg.Wait()
	var sum float64
	for _, r := range rates {
		sum += r
	}
	if sum == 0 {
		l.fail(errors.New("no exchange completed"))
		return 1
	}
	return sum / refLoadNominal
}

// stop closes the load and returns the first exchange that failed.
func (l *refLoad) stop() error {
	if l == nil {
		return nil
	}
	for _, c := range l.conns {
		c.Close() //nolint:errcheck // loopback
	}
	l.ln.Close() //nolint:errcheck // loopback
	l.wg.Wait()
	return l.err
}
