package cluster

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/lapcache"
	"repro/internal/lapclient"
)

// fakeClock hands every After call to the test as a fakeTimer; the
// test reads the requested duration and fires the timer at will, so a
// whole backoff schedule runs in microseconds of real time.
type fakeClock struct {
	waits chan *fakeTimer
}

type fakeTimer struct {
	d  time.Duration
	ch chan time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{waits: make(chan *fakeTimer, 16)} }

func (c *fakeClock) After(d time.Duration) <-chan time.Time {
	t := &fakeTimer{d: d, ch: make(chan time.Time, 1)}
	c.waits <- t
	return t.ch
}

func (t *fakeTimer) fire() { t.ch <- time.Time{} }

// next returns the health loop's next timer or fails the test.
func (c *fakeClock) next(t *testing.T) *fakeTimer {
	t.Helper()
	select {
	case ft := <-c.waits:
		return ft
	case <-time.After(5 * time.Second):
		t.Fatal("health loop never armed its timer")
		return nil
	}
}

// backoffNode builds an unstarted node for pure NextBackoff queries.
func backoffNode(t *testing.T, ping, max time.Duration) *Node {
	t.Helper()
	n, err := NewNode(Config{
		Self:         "self:1",
		Peers:        []string{"peer:1"},
		PingInterval: ping,
		BackoffMax:   max,
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestNextBackoffSchedule: exponential growth from PingInterval, cap
// at BackoffMax, ±25% jitter, determinism, and the attempt-0 reset.
func TestNextBackoffSchedule(t *testing.T) {
	const ping, max = 100 * time.Millisecond, 1600 * time.Millisecond
	n := backoffNode(t, ping, max)

	if got := n.NextBackoff("a:1", 0); got != ping {
		t.Errorf("attempt 0 = %v, want exactly PingInterval %v (the post-success reset)", got, ping)
	}
	for attempt := 1; attempt <= 8; attempt++ {
		base := ping << attempt
		if base > max {
			base = max
		}
		got := n.NextBackoff("a:1", attempt)
		lo := time.Duration(float64(base) * 0.75)
		hi := time.Duration(float64(base) * 1.25)
		if got < lo || got >= hi {
			t.Errorf("attempt %d: backoff %v outside jitter bounds [%v, %v)", attempt, got, lo, hi)
		}
		if again := n.NextBackoff("a:1", attempt); again != got {
			t.Errorf("attempt %d: backoff not deterministic (%v vs %v)", attempt, got, again)
		}
	}
	// Past the cap the base stops growing; jitter still applies.
	if got := n.NextBackoff("a:1", 20); got >= time.Duration(float64(max)*1.25) {
		t.Errorf("attempt 20 backoff %v exceeds the jittered cap", got)
	}
}

// TestNextBackoffDecorrelated: peers that died together must not
// redial in lockstep — different addresses get different jitter.
func TestNextBackoffDecorrelated(t *testing.T) {
	n := backoffNode(t, 100*time.Millisecond, 4*time.Second)
	same := 0
	const peers = 32
	for i := 0; i < peers; i++ {
		a := n.NextBackoff(fmt.Sprintf("peer%d:1", i), 3)
		b := n.NextBackoff(fmt.Sprintf("peer%d:2", i), 3)
		if a == b {
			same++
		}
	}
	if same > peers/4 {
		t.Errorf("%d/%d peer pairs share an identical backoff; jitter is not decorrelating", same, peers)
	}
}

// TestHealthLoopBackoffAndReset drives one peer's health loop with a
// fake clock and a gated dialer: consecutive failures walk the
// exponential schedule, one success snaps it back to PingInterval.
func TestHealthLoopBackoffAndReset(t *testing.T) {
	// A real server for the success dial to land on, on the test node's
	// ring ({self:1, target}), so the handshake matches; it never
	// reaches self:1.
	target, stopTarget, err := StartLocalWith(1, func(i int, addrs []string) lapcache.Config {
		return lapcache.Config{
			Alg:         core.SpecNP,
			BlockSize:   512,
			CacheBlocks: 64,
			Store:       lapcache.NewMemStore(512, 0),
		}
	}, StartLocalOpts{
		TweakNode:   func(_ int, cfg *Config) { cfg.Peers = append(cfg.Peers, "self:1") },
		NoWaitReady: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer stopTarget()
	addr := target[0].Addr

	const ping, max = 50 * time.Millisecond, 400 * time.Millisecond
	fc := newFakeClock()
	var allow atomic.Bool
	var dials atomic.Int64
	n, err := NewNode(Config{
		Self:         "self:1",
		Peers:        []string{addr},
		PingInterval: ping,
		BackoffMax:   max,
		Clock:        fc,
		DialFunc: func(a string) (*lapclient.Conn, error) {
			dials.Add(1)
			if !allow.Load() {
				return nil, fmt.Errorf("dial gated shut")
			}
			return lapclient.DialConn(a, PeerWindow)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	defer n.Close()

	// Failures 1..4: each wait must match the pure schedule exactly.
	for attempt := 1; attempt <= 4; attempt++ {
		ft := fc.next(t)
		if want := n.NextBackoff(addr, attempt); ft.d != want {
			t.Errorf("after %d failures the loop armed %v, want NextBackoff=%v", attempt, ft.d, want)
		}
		if ft.d < ping {
			t.Errorf("after %d failures the loop armed %v, faster than the base interval", attempt, ft.d)
		}
		if attempt == 4 {
			// Open the gate before the fourth wait ends: the dial it
			// releases must be the one that succeeds. Opened after the
			// fire, a health loop that runs first fails a fifth time.
			allow.Store(true)
		}
		ft.fire()
	}

	// The next round dialed clean: the schedule must reset to the
	// unjittered ping interval.
	ft := fc.next(t)
	if ft.d != ping {
		t.Errorf("post-success wait %v, want PingInterval %v (backoff did not reset)", ft.d, ping)
	}
	if n.PeerDown(addr) {
		t.Error("peer still marked down after a successful dial")
	}
	ft.fire()

	// Live steady state: pings every PingInterval, no redials.
	before := dials.Load()
	for i := 0; i < 3; i++ {
		ft := fc.next(t)
		if ft.d != ping {
			t.Errorf("steady-state wait %d = %v, want %v", i, ft.d, ping)
		}
		ft.fire()
	}
	// Give the last fired round a moment to run its ping path.
	time.Sleep(10 * time.Millisecond)
	if got := dials.Load(); got != before {
		t.Errorf("live peer was redialed %d times; pings should keep the connection", got-before)
	}
}
