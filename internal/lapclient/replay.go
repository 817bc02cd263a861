package lapclient

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/blockdev"
	"repro/internal/wire"
	"repro/internal/workload"
)

// ReplayOptions tunes a trace replay.
type ReplayOptions struct {
	// ThinkScale multiplies trace think times (0 disables thinking
	// entirely — the usual choice, since the trace's virtual think
	// times are far longer than a live server's service times).
	ThinkScale float64
}

// ReplayResult summarizes a trace replay from the client's side.
type ReplayResult struct {
	Procs    int
	Requests int
	Reads    int
	ReadHits int
	Writes   int
	Closes   int
	Elapsed  time.Duration
}

// HitRatio returns the fraction of reads fully served from cache.
func (r ReplayResult) HitRatio() float64 {
	if r.Reads == 0 {
		return 0
	}
	return float64(r.ReadHits) / float64(r.Reads)
}

// ReplayTrace drives live servers with a workload trace: one goroutine
// per traced process, each running its closed loop in order. Processes
// are sharded round-robin across the given node addresses, the way a
// real workload's clients would each mount whichever cache node is
// nearest, and the processes of one node share one pipelined Conn to
// it. A traced process has at most one request in flight, so that
// connection's window is the node's share of processes, and no process
// ever waits for a slot. Every node must report the same block size.
func ReplayTrace(addrs []string, tr *workload.Trace, opts ReplayOptions) (ReplayResult, error) {
	if len(addrs) == 0 {
		return ReplayResult{}, fmt.Errorf("lapclient: replay needs at least one address")
	}
	window := (len(tr.Procs) + len(addrs) - 1) / len(addrs)
	conns := make([]*Conn, 0, len(addrs))
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	for _, addr := range addrs {
		c, err := DialConn(addr, window)
		if err != nil {
			return ReplayResult{}, fmt.Errorf("lapclient: node %s: %w", addr, err)
		}
		conns = append(conns, c)
		if bs := c.Info().BlockSize; bs <= 0 || bs != conns[0].Info().BlockSize {
			return ReplayResult{}, fmt.Errorf("lapclient: node %s reports block size %d (first node: %d)",
				addr, bs, conns[0].Info().BlockSize)
		}
	}
	blockSize := int64(conns[0].Info().BlockSize)

	res := ReplayResult{Procs: len(tr.Procs)}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	start := time.Now()
	for pi := range tr.Procs {
		wg.Add(1)
		go func(pi int, p *workload.Process) {
			defer wg.Done()
			c := conns[pi%len(conns)]
			var local ReplayResult
			for _, s := range p.Steps {
				if opts.ThinkScale > 0 && s.Think > 0 {
					time.Sleep(time.Duration(float64(s.Think) * opts.ThinkScale))
				}
				local.Requests++
				switch s.Kind {
				case workload.OpRead:
					span := blockdev.ByteRangeToSpan(s.File, s.Offset, s.Size, blockSize)
					rh, _, err := c.Do(Req(wire.OpRead, 0, span.File, span.Start, span.Count), nil, nil)
					if err != nil {
						fail(err)
						return
					}
					local.Reads++
					if rh.Flags&wire.FlagHit != 0 {
						local.ReadHits++
					}
				case workload.OpWrite:
					span := blockdev.ByteRangeToSpan(s.File, s.Offset, s.Size, blockSize)
					if _, _, err := c.Do(Req(wire.OpWrite, 0, span.File, span.Start, span.Count), nil, nil); err != nil {
						fail(err)
						return
					}
					local.Writes++
				case workload.OpClose:
					if _, _, err := c.Do(Req(wire.OpClose, 0, s.File, 0, 0), nil, nil); err != nil {
						fail(err)
						return
					}
					local.Closes++
				}
			}
			mu.Lock()
			res.Requests += local.Requests
			res.Reads += local.Reads
			res.ReadHits += local.ReadHits
			res.Writes += local.Writes
			res.Closes += local.Closes
			mu.Unlock()
		}(pi, &tr.Procs[pi])
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	if firstErr != nil {
		return res, firstErr
	}
	return res, nil
}
