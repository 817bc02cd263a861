package lapclient

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/lapcache"
	"repro/internal/wire"
)

// TestPoolChurnNoLostRequests is the connection-churn regression: a
// churner tears pool connections down mid-load (the way a flaky
// network or an idle-timeout would), one at a time until a single one
// is left, while many goroutines drive reads through the pool. Every
// request must either succeed or fail over to a surviving connection —
// none may error out of the pool while live connections exist, and
// none may be silently lost. The old pool only ever skipped already-dead connections; a
// request in flight on the dying one surfaced the transport error to
// the caller, which aborted replays under churn.
//
// The server is audited afterwards: it ran the linear-aggressive
// prefetcher in strict mode over poisoned buffers while its client
// connections were cut with data reads and writes in flight, so after
// teardown the ledger must show no violation, every block buffer must
// be back in the pool, and no cut connection may have been misread as
// a protocol error or an idle client.
func TestPoolChurnNoLostRequests(t *testing.T) {
	const workers = 8
	const perWorker = 200
	const fileBlocks = 64
	files := make(map[blockdev.FileID]blockdev.BlockNo, workers)
	for w := 0; w < workers; w++ {
		files[blockdev.FileID(w+1)] = fileBlocks
	}
	eng, srv, addr := startServerEngine(t, lapcache.Config{
		Alg: core.SpecLnAgrISPPM1, BlockSize: 128, CacheBlocks: 256,
		FileBlocks: files, StrictLinear: true, PoisonBufs: true,
	})
	p, err := DialPool(addr, 3, 8)
	if err != nil {
		t.Fatalf("dial pool: %v", err)
	}
	defer p.Close()

	stop := make(chan struct{})
	var done, failed atomic.Int64

	// The churner: kill the next slot's conn outright (no graceful
	// handover) and wait for its reader to notice, leaving the last one
	// alive. It is paced by completed requests, not by wall time: a
	// loaded machine slows requests and churn alike, so every kill lands
	// on requests in flight.
	const churnEvery = 16
	var churns atomic.Int32
	var churnWg sync.WaitGroup
	churnWg.Add(1)
	go func() {
		defer churnWg.Done()
		poll := func(cond func() bool) bool {
			for !cond() {
				select {
				case <-stop:
					return false
				case <-time.After(100 * time.Microsecond):
				}
			}
			return true
		}
		for i := 0; i < len(p.conns)-1; i++ {
			next := done.Load() + churnEvery
			if !poll(func() bool { return done.Load() >= next }) {
				return
			}
			c := p.conns[i]
			c.Close()
			if !poll(c.Dead) {
				return
			}
			churns.Add(1)
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				f := blockdev.FileID(w + 1)
				var err error
				if i%10 == 9 {
					_, _, err = p.Do(Req(wire.OpWrite, 0, f, blockdev.BlockNo(i%fileBlocks), 1), nil, nil)
				} else {
					_, _, err = read(p, f, blockdev.BlockNo(i%fileBlocks), 1, true)
				}
				if err != nil {
					failed.Add(1)
					t.Errorf("worker %d request %d: %v", w, i, err)
					return
				}
				done.Add(1)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	churnWg.Wait()

	if got := done.Load(); got != workers*perWorker {
		t.Fatalf("completed %d of %d requests (%d failed) across %d churns",
			got, workers*perWorker, failed.Load(), churns.Load())
	}
	if got, want := churns.Load(), int32(len(p.conns)-1); got != want {
		t.Fatalf("churner closed %d connections, want %d — the test exercised too little", got, want)
	}
	if live := p.Live(); live != 1 {
		t.Fatalf("%d live connections after churn, want the 1 left alone", live)
	}

	p.Close()
	srv.Close()
	eng.Shutdown()
	if v := eng.Ledger().Violations(); v != 0 {
		t.Errorf("linearity ledger: %d violations, want 0", v)
	}
	if hw := eng.Ledger().MaxHighWater(); hw != 1 {
		t.Errorf("ledger high-water %d, want exactly 1 (0 means prefetching never engaged)", hw)
	}
	eng.DrainCache()
	if live := eng.BufLive(); live != 0 {
		t.Errorf("BufLive = %d after drain, want 0 (a cut connection leaked block buffers)", live)
	}
	counts := srv.CloseCounts()
	if n := counts[lapcache.CloseProtocol] + counts[lapcache.CloseIdle]; n != 0 {
		t.Errorf("%d cut connections filed as protocol errors or idle clients; ledger: %v", n, counts)
	}
	t.Logf("%d churns; server close ledger %v", churns.Load(), counts)
}
