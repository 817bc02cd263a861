package loadgen

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/lapclient"
	"repro/internal/stats"
	"repro/internal/wire"
)

// RunConfig tunes how a schedule is fired at live servers.
type RunConfig struct {
	// Addrs are the target nodes; requests shard across them
	// round-robin by schedule index (the way clients mount their
	// nearest cache node).
	Addrs []string
	// Conns is the per-node pool size (0 = 4).
	Conns int
	// Window is the per-connection in-flight cap (0 =
	// lapclient.DefaultWindow).
	Window int
	// Deadline, when positive, is the per-request latency deadline: a
	// response slower than this counts under Result.Deadlines instead
	// of blocking the run. The request itself is not cancelled.
	Deadline time.Duration
	// ChurnEvery, when positive, force-rotates one pool connection per
	// interval (dial-first, so the pool never dips below strength) —
	// the connection-churn scenario.
	ChurnEvery time.Duration
	// MaxOutstanding caps unresolved requests across the whole run
	// (0 = 16x the total wire window). A saturated server otherwise
	// accumulates one parked goroutine per scheduled arrival, and the
	// generator's own queue management starts to dominate what it
	// measures. The cap does NOT compromise the coordinated-omission
	// correction: a request held back by the cap is still timed from
	// its scheduled arrival, so the wait shows up in the tail exactly
	// as it should.
	MaxOutstanding int
}

// Result is one open-loop run's client-side accounting. Every issued
// request resolves into exactly one of OK, Deadlines or Errors;
// Dropped is the difference and must be zero — the harness's
// zero-lost-response invariant.
type Result struct {
	Offered   float64 // configured arrival rate, req/s
	Achieved  float64 // completed requests / elapsed
	Issued    uint64
	OK        uint64
	Hits      uint64 // OK reads fully served from cache
	Deadlines uint64
	Errors    uint64
	Dropped   int64
	Elapsed   time.Duration
	// MaxLag is the worst dispatch lag behind the virtual arrival
	// clock: how late the generator itself ran. A lag comparable to
	// the measured latencies would mean the generator, not the server,
	// was the bottleneck.
	MaxLag time.Duration
	// Hist holds response latencies in nanoseconds, measured from each
	// request's scheduled arrival (coordinated-omission corrected).
	// A deadline expiry is recorded at the deadline value itself — a
	// floor on the request's true latency — so giving up on slow
	// responses can never make the tail look better.
	Hist *stats.Histogram
}

func (r *Result) String() string {
	return fmt.Sprintf(
		"offered %.0f/s achieved %.0f/s issued %d ok %d (hit %.3f) deadline %d err %d dropped %d  p50 %v p99 %v p999 %v max %v lag %v",
		r.Offered, r.Achieved, r.Issued, r.OK, r.HitRatio(), r.Deadlines, r.Errors, r.Dropped,
		time.Duration(r.Hist.Quantile(0.50)).Round(time.Microsecond),
		time.Duration(r.Hist.Quantile(0.99)).Round(time.Microsecond),
		time.Duration(r.Hist.Quantile(0.999)).Round(time.Microsecond),
		time.Duration(r.Hist.Max()).Round(time.Microsecond),
		r.MaxLag.Round(time.Microsecond),
	)
}

// HitRatio returns the fraction of successful reads fully served from
// cache.
func (r *Result) HitRatio() float64 {
	if r.OK == 0 {
		return 0
	}
	return float64(r.Hits) / float64(r.OK)
}

// Run fires the schedule at the servers open-loop: requests are
// issued on the virtual arrival clock regardless of how fast
// responses come back, and every latency is measured from the
// *scheduled* arrival, so a stalled server shows up as tail latency
// rather than as a quietly slowed-down run. Run returns once every
// request has resolved (response, deadline verdict, or error).
func Run(sched *Schedule, rc RunConfig) (*Result, error) {
	if len(rc.Addrs) == 0 {
		return nil, fmt.Errorf("loadgen: no target addresses")
	}
	pools := make([]*lapclient.Pool, len(rc.Addrs))
	for i, addr := range rc.Addrs {
		p, err := lapclient.DialPool(addr, rc.Conns, rc.Window)
		if err != nil {
			for _, q := range pools[:i] {
				q.Close()
			}
			return nil, fmt.Errorf("loadgen: node %s: %w", addr, err)
		}
		pools[i] = p
	}
	defer func() {
		for _, p := range pools {
			p.Close()
		}
	}()

	res := &Result{Offered: sched.Cfg.Rate, Hist: stats.NewHistogram()}
	var ok, hits, deadlines, errs atomic.Uint64
	var wg sync.WaitGroup

	maxOut := rc.MaxOutstanding
	if maxOut <= 0 {
		window := rc.Window
		if window <= 0 {
			window = lapclient.DefaultWindow
		}
		conns := rc.Conns
		if conns <= 0 {
			conns = 4
		}
		maxOut = 16 * window * conns * len(rc.Addrs)
	}
	outstanding := make(chan struct{}, maxOut)

	churnStop := make(chan struct{})
	var churnWg sync.WaitGroup
	if rc.ChurnEvery > 0 {
		churnWg.Add(1)
		go func() {
			defer churnWg.Done()
			t := time.NewTicker(rc.ChurnEvery)
			defer t.Stop()
			for i := 0; ; i++ {
				select {
				case <-churnStop:
					return
				case <-t.C:
					// Rotation errors are tolerable (a dial can lose a race
					// with shutdown); the pool keeps its old connection.
					_ = pools[i%len(pools)].ChurnOne()
				}
			}
		}()
	}

	start := time.Now()
	var maxLag int64
	for i := range sched.Reqs {
		req := &sched.Reqs[i]
		target := start.Add(req.At)
		now := time.Now()
		if d := target.Sub(now); d > 0 {
			time.Sleep(d)
		} else if lag := int64(-d); lag > maxLag {
			maxLag = lag
		}

		outstanding <- struct{}{} // issue-ahead cap; latency still runs from target
		pool := pools[i%len(pools)]
		wg.Add(1)
		res.Issued++
		done := func(rh wire.Header, _ []byte, err error) {
			// Latency from the scheduled arrival: queueing the generator
			// or the window inflicted is part of the number.
			lat := int64(time.Since(target))
			switch {
			case err == nil:
				ok.Add(1)
				if rh.Flags&wire.FlagHit != 0 {
					hits.Add(1)
				}
				res.Hist.Record(lat)
			case errors.Is(err, lapclient.ErrDeadline):
				deadlines.Add(1)
				// Record the deadline itself — a floor on the true
				// latency, so the tail cannot be under-reported by giving
				// up on slow responses.
				res.Hist.Record(int64(rc.Deadline))
			default:
				errs.Add(1)
				res.Hist.Record(lat)
			}
			<-outstanding
			wg.Done()
		}
		op := wire.OpRead
		if req.Write {
			op = wire.OpWrite
		}
		pool.DoAsync(lapclient.Req(op, 0, req.File, req.Off, req.Blocks), nil, rc.Deadline, done)
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	close(churnStop)
	churnWg.Wait()

	res.OK = ok.Load()
	res.Hits = hits.Load()
	res.Deadlines = deadlines.Load()
	res.Errors = errs.Load()
	res.Dropped = int64(res.Issued) - int64(res.OK+res.Deadlines+res.Errors)
	res.MaxLag = time.Duration(maxLag)
	if s := res.Elapsed.Seconds(); s > 0 {
		res.Achieved = float64(res.OK+res.Deadlines+res.Errors) / s
	}
	return res, nil
}
