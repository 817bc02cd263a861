package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/lapcache"
	"repro/internal/lapclient"
	"repro/internal/stats"
)

var (
	hotDur    = flag.Duration("hotpath-dur", 2*time.Second, "measurement window per hotpath cell")
	hotConns  = flag.String("hotpath-conns", "1,64,1024", "comma-separated concurrent-connection counts")
	hotDepth  = flag.Int("hotpath-depth", 4, "pipelined requests in flight per connection (1 = strict closed loop)")
	hotShards = flag.Int("hotpath-shards", 0, "server accept shards (0 = GOMAXPROCS)")
)

// runHotpath measures the wire hot path end to end: an in-process
// server with the vectored/coalesced data path and sharded accept
// loops, driven by C concurrent connections each keeping a small
// pipeline of single-block cache-hit reads in flight. Every request's
// latency lands in a histogram. The interesting cells are the
// extremes: conns=1 is single-stream latency (the coalescing latch
// only fires when a complete next request is already buffered, so it
// costs a lone request nothing), and conns=1024 shows the syscall
// amortization under fan-in.
//
// With -bench, results print as go-bench lines for benchfmt
// (BENCH_hotpath.json); otherwise an aligned table.
func runHotpath(benchOut bool) error {
	counts, err := parseConnCounts(*hotConns)
	if err != nil {
		return err
	}
	shards := *hotShards
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	depth := *hotDepth
	if depth < 1 {
		depth = 1
	}

	fmt.Fprintf(os.Stderr, "hotpath: shards=%d depth=%d dur=%v conns=%v\n",
		shards, depth, *hotDur, counts)
	if !benchOut {
		fmt.Printf("%6s %10s %12s %12s %12s %12s\n",
			"conns", "reqs", "mean-us", "p50-us", "p99-us", "req/s")
	}
	for _, nconns := range counts {
		cell, err := runHotpathCell(nconns, depth, shards, *hotDur)
		if err != nil {
			return err
		}
		if benchOut {
			// One synthetic iteration per cell: ns/op is the mean
			// request latency, with the tails as custom units.
			fmt.Printf("BenchmarkHotpath/coalesce/conns%d %d %.1f ns/op %d p50-ns %d p99-ns %.1f req/s\n",
				nconns, cell.reqs, cell.mean, cell.p50, cell.p99, cell.rate)
		} else {
			fmt.Printf("%6d %10d %12.1f %12.1f %12.1f %12.0f\n",
				nconns, cell.reqs, cell.mean/1e3,
				float64(cell.p50)/1e3, float64(cell.p99)/1e3, cell.rate)
		}
	}
	return nil
}

type hotpathCell struct {
	reqs     uint64
	mean     float64 // ns
	p50, p99 int64   // ns
	rate     float64 // req/s
}

// runHotpathCell boots a fresh single-node server for one connection
// count, drives it for dur, and tears it down. A fresh server per cell
// keeps cells independent — no warmed TCP windows or accumulated
// counters bleeding across configurations.
func runHotpathCell(nconns, depth, shards int, dur time.Duration) (hotpathCell, error) {
	const (
		blockSize = 8192
		hot       = 2048
	)
	e, err := lapcache.New(lapcache.Config{
		Alg:         core.SpecNP,
		BlockSize:   blockSize,
		CacheBlocks: 2 * hot,
		Store:       lapcache.NewMemStore(blockSize, 0),
	})
	if err != nil {
		return hotpathCell{}, err
	}
	defer e.Shutdown()
	e.Preload(1, 0, hot, false)

	srv := lapcache.NewServer(e)
	srv.Shards = shards
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return hotpathCell{}, err
	}
	go srv.Serve(ln)
	defer srv.Close()
	addr := ln.Addr().String()

	conns := make([]*lapclient.Conn, nconns)
	defer func() {
		for _, c := range conns {
			if c != nil {
				c.Close()
			}
		}
	}()
	for i := range conns {
		c, err := lapclient.DialConn(addr, depth)
		if err != nil {
			return hotpathCell{}, fmt.Errorf("hotpath: dial conn %d/%d: %w", i, nconns, err)
		}
		conns[i] = c
	}

	h := stats.NewHistogram()
	stop := make(chan struct{})
	errc := make(chan error, nconns*depth)
	var wg sync.WaitGroup
	start := time.Now()
	for ci, c := range conns {
		for w := 0; w < depth; w++ {
			wg.Add(1)
			go func(c *lapclient.Conn, seq int) {
				defer wg.Done()
				dsts := [][]byte{make([]byte, blockSize)}
				blk := blockdev.BlockNo(seq % hot)
				for {
					select {
					case <-stop:
						return
					default:
					}
					t0 := time.Now()
					hit, err := c.ReadInto(1, blk, 1, dsts)
					if err != nil {
						errc <- err
						return
					}
					if !hit {
						errc <- fmt.Errorf("hotpath: block %d missed a preloaded cache", blk)
						return
					}
					h.Record(time.Since(t0).Nanoseconds())
					blk = (blk + 1) % hot
				}
			}(c, ci*depth+w)
		}
	}
	time.Sleep(dur)
	close(stop)
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errc:
		return hotpathCell{}, err
	default:
	}

	return hotpathCell{
		reqs: h.Count(),
		mean: h.Mean(),
		p50:  h.Quantile(0.50),
		p99:  h.Quantile(0.99),
		rate: float64(h.Count()) / elapsed.Seconds(),
	}, nil
}

func parseConnCounts(s string) ([]int, error) {
	var out []int
	for _, f := range splitCommaInts(s) {
		if f <= 0 {
			return nil, fmt.Errorf("hotpath: bad -hotpath-conns %q", s)
		}
		out = append(out, f)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("hotpath: -hotpath-conns is empty")
	}
	return out, nil
}

func splitCommaInts(s string) []int {
	var out []int
	n, have := 0, false
	for i := 0; i <= len(s); i++ {
		if i < len(s) && s[i] >= '0' && s[i] <= '9' {
			n = n*10 + int(s[i]-'0')
			have = true
			continue
		}
		if have {
			out = append(out, n)
		}
		n, have = 0, false
	}
	return out
}
