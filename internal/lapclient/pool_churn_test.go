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

// TestPoolChurnNoLostRequests is the connection-churn regression: a
// churner repeatedly tears a pool connection down mid-load (the way a
// flaky network or an idle-timeout would) and redials it, while many
// goroutines drive reads through the pool. Every request must either
// succeed or fail over to a surviving connection — none may error out
// of the pool while live connections exist, and none may be silently
// lost. The old pool only ever skipped already-dead connections; a
// request in flight on the dying one surfaced the transport error to
// the caller, which aborted replays under churn.
func TestPoolChurnNoLostRequests(t *testing.T) {
	addr := startServer(t, lapcache.Config{
		Alg: core.SpecNP, BlockSize: 128, CacheBlocks: 256,
	})
	p, err := DialPool(addr, 3, 8)
	if err != nil {
		t.Fatalf("dial pool: %v", err)
	}
	defer p.Close()

	const workers = 8
	const perWorker = 200
	stop := make(chan struct{})

	// The churner: kill the next slot's conn outright (no graceful
	// handover), then redial the dead slot — crash-churn, the harsher
	// variant of ChurnOne's dial-first rotation.
	var churns atomic.Int32
	var churnWg sync.WaitGroup
	churnWg.Add(1)
	go func() {
		defer churnWg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
			}
			if c := p.conn(i % p.Size()); c != nil {
				c.Close()
			}
			if _, err := p.Redial(); err != nil && !errors.Is(err, ErrPoolClosed) {
				t.Errorf("redial: %v", err)
				return
			}
			churns.Add(1)
		}
	}()

	var done, failed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				f := blockdev.FileID(w + 1)
				if _, _, err := read(p, f, blockdev.BlockNo(i%64), 1, false); err != nil {
					failed.Add(1)
					t.Errorf("worker %d read %d: %v", w, i, err)
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
	if churns.Load() == 0 {
		t.Fatal("churner never ran — the test exercised nothing")
	}
	if live := p.Live(); live == 0 {
		t.Fatal("pool fully dead after churn despite redials")
	}
}

// TestPoolChurnOneRotation pins ChurnOne's dial-first contract: the
// pool never dips below full strength, and in-flight requests on the
// rotated-out connection fail over.
func TestPoolChurnOneRotation(t *testing.T) {
	addr := startServer(t, lapcache.Config{
		Alg: core.SpecNP, BlockSize: 128, CacheBlocks: 256,
	})
	p, err := DialPool(addr, 2, 4)
	if err != nil {
		t.Fatalf("dial pool: %v", err)
	}
	defer p.Close()

	for i := 0; i < 10; i++ {
		if err := p.ChurnOne(); err != nil {
			t.Fatalf("churn %d: %v", i, err)
		}
		if live := p.Live(); live != 2 {
			t.Fatalf("churn %d: live = %d, want 2 (dial-first rotation)", i, live)
		}
		if _, _, err := read(p, 1, blockdev.BlockNo(i), 1, false); err != nil {
			t.Fatalf("read after churn %d: %v", i, err)
		}
	}
}

// TestPoolReadAsyncChurn drives the open-loop async path under the
// same crash-churn: every callback must fire exactly once, with no
// errors — the accounting the load harness's zero-drop invariant
// stands on.
func TestPoolReadAsyncChurn(t *testing.T) {
	addr := startServer(t, lapcache.Config{
		Alg: core.SpecNP, BlockSize: 128, CacheBlocks: 256,
	})
	p, err := DialPool(addr, 3, 8)
	if err != nil {
		t.Fatalf("dial pool: %v", err)
	}
	defer p.Close()

	stop := make(chan struct{})
	var churnWg sync.WaitGroup
	churnWg.Add(1)
	go func() {
		defer churnWg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
			}
			if c := p.conn(i % p.Size()); c != nil {
				c.Close()
			}
			if _, err := p.Redial(); err != nil && !errors.Is(err, ErrPoolClosed) {
				t.Errorf("redial: %v", err)
				return
			}
		}
	}()

	const requests = 1500
	var fired, errored atomic.Int64
	var wg sync.WaitGroup
	wg.Add(requests)
	for i := 0; i < requests; i++ {
		p.DoAsync(Req(wire.OpRead, 0, blockdev.FileID(1+i%4), blockdev.BlockNo(i%64), 1), nil, 2*time.Second,
			func(_ wire.Header, _ []byte, err error) {
				if err != nil {
					errored.Add(1)
				}
				fired.Add(1)
				wg.Done()
			})
		if i%50 == 0 {
			time.Sleep(time.Millisecond)
		}
	}
	wg.Wait()
	close(stop)
	churnWg.Wait()

	if fired.Load() != requests {
		t.Fatalf("callbacks fired %d times for %d requests", fired.Load(), requests)
	}
	if n := errored.Load(); n != 0 {
		t.Fatalf("%d of %d async requests errored under churn", n, requests)
	}
}

// TestConnReadAsyncDeadline pins the deadline verdict: against a store
// slow enough that the response cannot make it back in time, the
// callback fires ErrDeadline — once — and the connection stays usable
// for later requests once the slow response drains.
func TestConnReadAsyncDeadline(t *testing.T) {
	addr := startServer(t, lapcache.Config{
		Alg: core.SpecNP, BlockSize: 128, CacheBlocks: 32,
		Store: lapcache.NewMemStore(128, 50*time.Millisecond),
	})
	c, err := DialConn(addr, 4)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	got := make(chan error, 1)
	req := Req(wire.OpRead, 0, 1, 0, 1)
	c.DoAsync(req, nil, 5*time.Millisecond, func(_ wire.Header, _ []byte, err error) { got <- err })
	select {
	case err := <-got:
		if !errors.Is(err, ErrDeadline) {
			t.Fatalf("err = %v, want ErrDeadline", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("deadline callback never fired")
	}

	// The slot drains when the slow response lands; the conn must keep
	// working (and the cached block is now fast).
	deadlineWait := time.After(2 * time.Second)
	for {
		done := make(chan error, 1)
		c.DoAsync(req, nil, time.Second, func(_ wire.Header, _ []byte, err error) { done <- err })
		select {
		case err := <-done:
			if err == nil {
				return // healthy again
			}
			t.Fatalf("follow-up read: %v", err)
		case <-deadlineWait:
			t.Fatal("connection never recovered after a deadline")
		}
	}
}
