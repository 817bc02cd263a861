package core

import (
	"testing"

	"repro/internal/blockdev"
)

// The driver adds every change of its in-flight count to its file's
// window: these tests read the window's count (inFlight) and peak
// (HighWater), and the window panics if any interleaving drives the
// count negative.

func TestDriverReportsOutstandingToObserver(t *testing.T) {
	env := newFakeEnv()
	w := staticWindow(1)
	d := NewDriver(DriverConfig{
		Predictor:  NewOBA(),
		Mode:       ModeAggressive,
		Degree:     w,
		File:       1,
		FileBlocks: 10,
		Env:        env,
	})
	d.OnUserRequest(Request{Offset: 0, Size: 2}, 1, false)
	env.completeAll()

	if w.inFlight != 0 {
		t.Errorf("net outstanding after drain = %d, want 0", w.inFlight)
	}
	// With a degree of 1 the count may never exceed 1 — the linear
	// throttle as the file's window sees it.
	if peak := w.HighWater(); peak != 1 {
		t.Errorf("observed outstanding peak = %d, want 1", peak)
	}
	if d.Stats().HighWater != 1 {
		t.Errorf("driver high-water = %d, want 1", d.Stats().HighWater)
	}
}

func TestDriverStopChainReleasesOutstanding(t *testing.T) {
	env := newFakeEnv()
	w := staticWindow(1)
	d := NewDriver(DriverConfig{
		Predictor:  NewOBA(),
		Mode:       ModeAggressive,
		Degree:     w,
		File:       2,
		FileBlocks: 10,
		Env:        env,
	})
	d.OnUserRequest(Request{Offset: 0, Size: 2}, 1, false)
	if w.inFlight != 1 {
		t.Fatalf("outstanding before stop = %d, want 1 (prefetch in flight)", w.inFlight)
	}
	// Close the file while the prefetch is still in flight: the driver
	// must hand the outstanding count back immediately, not wait for a
	// completion that will be discarded.
	d.StopChain()
	if w.inFlight != 0 {
		t.Errorf("outstanding after StopChain = %d, want 0", w.inFlight)
	}
	// The orphaned completion must not double-release.
	env.completeAll()
	if w.inFlight != 0 {
		t.Errorf("outstanding after orphan completion = %d, want 0", w.inFlight)
	}
}

// TestDriverObserverWindowedPeak is the K>1 generalization of the
// peak check: a windowed driver may run the window's count up to K,
// never past it, and still drain to zero.
func TestDriverObserverWindowedPeak(t *testing.T) {
	const k = 3
	env := newFakeEnv()
	w := staticWindow(k)
	d := NewDriver(DriverConfig{
		Predictor:  NewOBA(),
		Mode:       ModeAggressive,
		Degree:     w,
		File:       3,
		FileBlocks: 64,
		Env:        env,
	})
	for i := 0; i < 8; i++ {
		d.OnUserRequest(Request{Offset: blockdev.BlockNo(i), Size: 1}, Tick(i+1), false)
	}
	if peak := w.HighWater(); peak != k {
		t.Errorf("observed outstanding peak = %d, want %d", peak, k)
	}
	env.completeAll()
	if w.inFlight != 0 {
		t.Errorf("net outstanding after drain = %d, want 0", w.inFlight)
	}
	if hw := d.Stats().HighWater; hw != k {
		t.Errorf("driver high-water = %d, want %d", hw, k)
	}
}

// TestDriverStopChainWindowedOrphans closes a file with a *full K>1
// window in flight, restarts the chain, and then lets the orphaned
// completions land amidst the new generation's: each orphan must be
// discarded exactly once (no double-decrement), the restarted chain's
// accounting must be untouched, and the peak must stay within K.
// The window panics if any interleaving drives the count negative.
func TestDriverStopChainWindowedOrphans(t *testing.T) {
	const k = 3
	env := newFakeEnv()
	w := staticWindow(k)
	d := NewDriver(DriverConfig{
		Predictor:  NewOBA(),
		Mode:       ModeAggressive,
		Degree:     w,
		File:       4,
		FileBlocks: 64,
		Env:        env,
	})
	d.OnUserRequest(Request{Offset: 0, Size: 1}, 1, false)
	d.OnUserRequest(Request{Offset: 1, Size: 1}, 2, false)
	if w.inFlight != k {
		t.Fatalf("outstanding before stop = %d, want a full window of %d", w.inFlight, k)
	}
	orphans := len(env.inflight)

	// Close with the window full: the driver hands back all K at once.
	d.StopChain()
	if w.inFlight != 0 {
		t.Fatalf("outstanding after StopChain = %d, want 0", w.inFlight)
	}

	// Restart the chain; the old generation's operations are still in
	// env.inflight ahead of the new ones.
	d.OnUserRequest(Request{Offset: 20, Size: 1}, 3, false)
	newOps := w.inFlight
	if newOps == 0 {
		t.Fatal("restarted chain issued nothing")
	}
	for i := 0; i < orphans; i++ {
		env.completeOne() // old-generation orphan: must be discarded
	}
	if w.inFlight < newOps {
		t.Errorf("orphan completions stole %d release(s) from the live generation", newOps-w.inFlight)
	}
	env.completeAll()
	if w.inFlight != 0 {
		t.Errorf("net outstanding after drain = %d, want 0", w.inFlight)
	}
	if peak := w.HighWater(); peak > k {
		t.Errorf("observed outstanding peak = %d, want <= %d", peak, k)
	}
}

// doubleFireEnv retains every done callback so the test can invoke a
// completion twice — the pathological environment the release latch
// defends against.
type doubleFireEnv struct {
	cache map[blockdev.BlockID]bool
	dones []func()
}

func (f *doubleFireEnv) Cached(b blockdev.BlockID) bool { return f.cache[b] }

func (f *doubleFireEnv) Prefetch(b blockdev.BlockID, fallback bool, cancelled func() bool, done func()) bool {
	f.cache[b] = true // complete into the cache up front; timing is the test's
	f.dones = append(f.dones, done)
	return true
}

// TestDriverDoubleFiredDoneReleasesOnce fires each completion twice:
// the windowed accounting must decrement once per operation, never
// twice, and the completion stats must count each operation once.
func TestDriverDoubleFiredDoneReleasesOnce(t *testing.T) {
	const k = 2
	env := &doubleFireEnv{cache: make(map[blockdev.BlockID]bool)}
	w := staticWindow(k)
	d := NewDriver(DriverConfig{
		Predictor:  NewOBA(),
		Mode:       ModeAggressive,
		Degree:     w,
		File:       5,
		FileBlocks: 8,
		Env:        env,
	})
	d.OnUserRequest(Request{Offset: 0, Size: 1}, 1, false)
	fired := 0
	for i := 0; i < len(env.dones); i++ { // dones grows as completions pump
		env.dones[i]()
		env.dones[i]()
		fired++
	}
	if w.inFlight != 0 {
		t.Errorf("net outstanding after double-fired drain = %d, want 0", w.inFlight)
	}
	if got := d.Stats().Completed; got != uint64(fired) {
		t.Errorf("Completed = %d, want %d (each op counted once)", got, fired)
	}
	if peak := w.HighWater(); peak > k {
		t.Errorf("observed outstanding peak = %d, want <= %d", peak, k)
	}
}
