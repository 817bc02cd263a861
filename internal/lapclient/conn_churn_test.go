package lapclient

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/lapcache"
	"repro/internal/wire"
)

// sharedConn is the one Conn every worker shares, redialed by
// whichever worker first finds it dead.
type sharedConn struct {
	addr    string
	mu      sync.Mutex
	c       *Conn
	redials int
}

// get returns the current Conn, or a fresh one in place of a dead one.
func (s *sharedConn) get() (*Conn, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.c.Dead() {
		return s.c, nil
	}
	c, err := DialConn(s.addr, 8)
	if err != nil {
		return nil, err
	}
	s.c.Close()
	s.c = c
	s.redials++
	return c, nil
}

// TestConnChurnNoLostRequests is the connection-churn regression: a
// churner closes the one shared Conn mid-load (the way a flaky network
// or an idle timeout would), again and again, while many goroutines
// drive reads and writes through it. A worker whose request fails with
// a transport error redials and re-issues it — safe because every op
// is idempotent — so churn costs latency and no request is lost. A
// server refusal is never re-issued: the server answered.
//
// The server is audited afterwards: it ran the linear-aggressive
// prefetcher in strict mode over poisoned buffers while its client
// connections were cut with data reads and writes in flight, so after
// teardown the engine must show no linearity violation, every block buffer must
// be back in the pool, and no cut connection may have been misread as
// a protocol error or an idle client.
func TestConnChurnNoLostRequests(t *testing.T) {
	const workers = 8
	const perWorker = 200
	const fileBlocks = 64
	const wantChurns = 3
	const attempts = 4 // per request; a churn costs each caller at most one
	files := make(map[blockdev.FileID]blockdev.BlockNo, workers)
	for w := 0; w < workers; w++ {
		files[blockdev.FileID(w+1)] = fileBlocks
	}
	eng, srv, addr := startServerEngine(t, lapcache.Config{
		Alg: core.SpecLnAgrISPPM1, BlockSize: 128, CacheBlocks: 256,
		FileBlocks: files, StrictLinear: true, PoisonBufs: true,
	})
	first, err := DialConn(addr, 8)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	sc := &sharedConn{addr: addr, c: first}
	defer func() { sc.c.Close() }()

	stop := make(chan struct{})
	var done, failed atomic.Int64

	// The churner: close the current Conn outright (no graceful
	// handover) and wait for its reader to notice. It is paced by
	// completed requests, not by wall time: a loaded machine slows
	// requests and churn alike, so every close lands on requests in
	// flight, and the next one waits until a redialed Conn has carried
	// some.
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
		for i := 0; i < wantChurns; i++ {
			next := done.Load() + churnEvery
			if !poll(func() bool { return done.Load() >= next }) {
				return
			}
			c, err := sc.get()
			if err != nil {
				t.Errorf("churner: %v", err)
				return
			}
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
				for a := 0; a < attempts; a++ {
					var c *Conn
					if c, err = sc.get(); err != nil {
						break
					}
					if i%10 == 9 {
						_, _, err = c.Do(Req(wire.OpWrite, 0, f, blockdev.BlockNo(i%fileBlocks), 1), nil, nil)
					} else {
						_, _, err = read(c, f, blockdev.BlockNo(i%fileBlocks), 1, true)
					}
					var se *ServerError
					if err == nil || errors.As(err, &se) {
						break
					}
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
	if got := churns.Load(); got != wantChurns {
		t.Fatalf("churner closed %d connections, want %d — the test exercised too little", got, wantChurns)
	}
	if sc.redials != wantChurns {
		t.Errorf("%d redials for %d churns, want one each", sc.redials, wantChurns)
	}

	sc.c.Close()
	srv.Close()
	eng.Shutdown()
	snap := eng.Snapshot()
	if v := snap.LinearViolations; v != 0 {
		t.Errorf("linearity: %d violations, want 0", v)
	}
	if hw := snap.MaxFileOutstandingHW; hw != 1 {
		t.Errorf("file high-water %d, want exactly 1 (0 means prefetching never engaged)", hw)
	}
	eng.DrainCache()
	if live := eng.BufLive(); live != 0 {
		t.Errorf("BufLive = %d after drain, want 0 (a cut connection leaked block buffers)", live)
	}
	counts := srv.CloseCounts()
	if n := counts[lapcache.CloseProtocol] + counts[lapcache.CloseIdle]; n != 0 {
		t.Errorf("%d cut connections filed as protocol errors or idle clients; ledger: %v", n, counts)
	}
	t.Logf("%d churns, %d redials; server close ledger %v", churns.Load(), sc.redials, counts)
}
