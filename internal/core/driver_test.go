package core

import (
	"testing"

	"repro/internal/blockdev"
	"repro/internal/sim"
)

// fakeEnv is a controllable Env: prefetches queue up and complete only
// when the test says so, and the cache is a plain set. It counts its
// evictions (the optional part of Env), so the driver tests run the
// anchored path; wrap it in blind to hide the count.
type fakeEnv struct {
	cache     map[blockdev.BlockID]bool
	evictions uint64
	limit     int // refuse prefetches beyond this many in flight; 0 = never
	inflight  []fakeOp
	issued    []blockdev.BlockID
	fallbacks []bool
}

type fakeOp struct {
	b         blockdev.BlockID
	cancelled func() bool
	done      func()
}

// blind is an Env with nothing but the two required methods.
type blind struct{ Env }

func newFakeEnv() *fakeEnv {
	return &fakeEnv{cache: make(map[blockdev.BlockID]bool)}
}

func (f *fakeEnv) Cached(b blockdev.BlockID) bool { return f.cache[b] }

func (f *fakeEnv) Evictions() uint64 { return f.evictions }

// evict drops b from the cache the way a host must: counted.
func (f *fakeEnv) evict(b blockdev.BlockID) {
	if f.cache[b] {
		delete(f.cache, b)
		f.evictions++
	}
}

func (f *fakeEnv) Prefetch(b blockdev.BlockID, fallback bool, cancelled func() bool, done func()) bool {
	if f.limit > 0 && len(f.inflight) >= f.limit {
		return false
	}
	f.issued = append(f.issued, b)
	f.fallbacks = append(f.fallbacks, fallback)
	f.inflight = append(f.inflight, fakeOp{b, cancelled, done})
	return true
}

// completeOne finishes the oldest in-flight prefetch, inserting the
// block into the cache unless the operation was cancelled; done fires
// either way, as it does on both hosts.
func (f *fakeEnv) completeOne() bool {
	if len(f.inflight) == 0 {
		return false
	}
	op := f.inflight[0]
	f.inflight = f.inflight[1:]
	if op.cancelled == nil || !op.cancelled() {
		f.cache[op.b] = true
	}
	op.done()
	return true
}

func (f *fakeEnv) completeAll() {
	for f.completeOne() {
	}
}

func bid(f, b int) blockdev.BlockID {
	return blockdev.BlockID{File: blockdev.FileID(f), Block: blockdev.BlockNo(b)}
}

func newDriver(t *testing.T, pred Predictor, mode Mode, maxOut int, fileBlocks int, env Env) *Driver {
	t.Helper()
	return NewDriver(DriverConfig{
		Predictor:  pred,
		Mode:       mode,
		Degree:     staticWindow(maxOut),
		File:       1,
		FileBlocks: blockdev.BlockNo(fileBlocks),
		Env:        env,
	})
}

func TestOneShotOBAPrefetchesOneBlock(t *testing.T) {
	env := newFakeEnv()
	d := newDriver(t, NewOBA(), ModeOneShot, 1, 1000, env)
	d.OnUserRequest(Request{Offset: 0, Size: 2}, 1, false)
	if len(env.issued) != 1 || env.issued[0] != bid(1, 2) {
		t.Fatalf("issued %v, want [1:2]", env.issued)
	}
	env.completeAll()
	if len(env.issued) != 1 {
		t.Errorf("one-shot OBA chained: issued %v", env.issued)
	}
}

func TestOneShotISPPMPrefetchesWholePredictedRequest(t *testing.T) {
	env := newFakeEnv()
	m := NewISPPM(1)
	d := newDriver(t, m, ModeOneShot, 1, 1000, env)
	// Teach the paper pattern via the driver.
	for i, r := range paperPattern(4) {
		d.OnUserRequest(r, Tick(i+1), false)
		env.completeAll()
	}
	// After the 4th request (offset 11, size 3) the prediction is
	// (16, 2): both blocks must be prefetched, one at a time (linear).
	got := env.issued[len(env.issued)-2:]
	if got[0] != bid(1, 16) || got[1] != bid(1, 17) {
		t.Errorf("last issued = %v, want [1:16 1:17]", got)
	}
}

func TestAggressiveOBAWalksToEndOfFile(t *testing.T) {
	env := newFakeEnv()
	d := newDriver(t, NewOBA(), ModeAggressive, 1, 10, env)
	d.OnUserRequest(Request{Offset: 0, Size: 2}, 1, false)
	env.completeAll()
	// Must have prefetched blocks 2..9 and then stopped at EOF.
	if len(env.issued) != 8 {
		t.Fatalf("issued %d blocks, want 8 (2..9)", len(env.issued))
	}
	for i, b := range env.issued {
		if b != bid(1, i+2) {
			t.Errorf("issued[%d] = %v, want 1:%d", i, b, i+2)
		}
	}
	if d.Stats().ChainStops != 1 {
		t.Errorf("ChainStops = %d, want 1", d.Stats().ChainStops)
	}
}

func TestLinearLimitOneOutstanding(t *testing.T) {
	env := newFakeEnv()
	d := newDriver(t, NewOBA(), ModeAggressive, 1, 100, env)
	d.OnUserRequest(Request{Offset: 0, Size: 1}, 1, false)
	if len(env.inflight) != 1 {
		t.Fatalf("outstanding = %d, want 1 (linear)", len(env.inflight))
	}
	if d.Outstanding() != 1 {
		t.Errorf("driver Outstanding = %d", d.Outstanding())
	}
	env.completeOne()
	if len(env.inflight) != 1 {
		t.Errorf("after completion outstanding = %d, want 1 (next issued)", len(env.inflight))
	}
}

func TestUnlimitedAggressiveFloodsQueue(t *testing.T) {
	env := newFakeEnv()
	d := newDriver(t, NewOBA(), ModeAggressive, 0, 50, env)
	d.OnUserRequest(Request{Offset: 0, Size: 1}, 1, false)
	// Unlimited: all 49 remaining blocks issued immediately.
	if len(env.inflight) != 49 {
		t.Errorf("outstanding = %d, want 49 (unlimited)", len(env.inflight))
	}
}

func TestKOutstandingLimit(t *testing.T) {
	env := newFakeEnv()
	d := newDriver(t, NewOBA(), ModeAggressive, 4, 100, env)
	d.OnUserRequest(Request{Offset: 0, Size: 1}, 1, false)
	if len(env.inflight) != 4 {
		t.Errorf("outstanding = %d, want 4", len(env.inflight))
	}
}

func TestAggressiveCorrectPredictionKeepsChain(t *testing.T) {
	env := newFakeEnv()
	d := newDriver(t, NewOBA(), ModeAggressive, 1, 1000, env)
	d.OnUserRequest(Request{Offset: 0, Size: 1}, 1, false)
	for i := 0; i < 5; i++ {
		env.completeOne()
	}
	issuedBefore := len(env.issued)
	restartsBefore := d.Stats().Restarts
	// The user now reads block 1, which was already prefetched:
	// satisfied=true, the chain must not restart.
	d.OnUserRequest(Request{Offset: 1, Size: 1}, 2, true)
	if d.Stats().Restarts != restartsBefore {
		t.Error("correct prediction restarted the chain")
	}
	env.completeOne()
	if len(env.issued) <= issuedBefore {
		t.Error("chain did not keep running after a satisfied request")
	}
	// Sequence must continue where it was, not from block 2.
	last := env.issued[len(env.issued)-1]
	if last.Block <= 6 {
		t.Errorf("chain regressed to block %d", last.Block)
	}
}

func TestAggressiveMispredictionRestartsChain(t *testing.T) {
	env := newFakeEnv()
	d := newDriver(t, NewOBA(), ModeAggressive, 1, 1000, env)
	d.OnUserRequest(Request{Offset: 0, Size: 1}, 1, false)
	for i := 0; i < 3; i++ {
		env.completeOne()
	}
	// The user jumps to block 500 (not prefetched): restart there.
	d.OnUserRequest(Request{Offset: 500, Size: 1}, 2, false)
	if d.Stats().Restarts != 2 { // first request also counts as unsatisfied
		t.Errorf("Restarts = %d, want 2", d.Stats().Restarts)
	}
	env.completeAll()
	// After restart the next issued block must be 501.
	found := false
	for _, b := range env.issued {
		if b == bid(1, 501) {
			found = true
		}
	}
	if !found {
		t.Errorf("restart did not prefetch from the new position; issued %v", env.issued)
	}
}

func TestRestartCancelsStaleOps(t *testing.T) {
	env := newFakeEnv()
	d := newDriver(t, NewOBA(), ModeAggressive, 1, 1000, env)
	d.OnUserRequest(Request{Offset: 0, Size: 1}, 1, false)
	// One op in flight for block 1; restart before it completes.
	d.OnUserRequest(Request{Offset: 500, Size: 1}, 2, false)
	// The stale op must now report cancelled.
	if !env.inflight[0].cancelled() {
		t.Error("stale-generation op not cancelled")
	}
	env.completeAll()
	if env.cache[bid(1, 1)] {
		t.Error("cancelled op still populated the cache")
	}
}

func TestDriverSkipsCachedBlocks(t *testing.T) {
	env := newFakeEnv()
	env.cache[bid(1, 2)] = true
	env.cache[bid(1, 3)] = true
	d := newDriver(t, NewOBA(), ModeAggressive, 1, 6, env)
	d.OnUserRequest(Request{Offset: 0, Size: 2}, 1, false)
	env.completeAll()
	// Blocks 2,3 cached: only 4,5 fetched.
	if len(env.issued) != 2 || env.issued[0] != bid(1, 4) || env.issued[1] != bid(1, 5) {
		t.Errorf("issued %v, want [1:4 1:5]", env.issued)
	}
}

func TestDriverClipsPredictionsToFile(t *testing.T) {
	env := newFakeEnv()
	m := NewISPPM(1)
	d := NewDriver(DriverConfig{
		Predictor: m, Mode: ModeOneShot, Degree: staticWindow(1),
		File: 1, FileBlocks: 20, Env: env,
	})
	// Teach stride 8 with size 4: prediction from offset 16 would be
	// [24, 28) — fully outside a 20-block file.
	reqs := []Request{{0, 4}, {8, 4}, {16, 4}}
	for i, r := range reqs {
		d.OnUserRequest(r, Tick(i+1), false)
		env.completeAll()
	}
	for _, b := range env.issued {
		if b.Block >= 20 {
			t.Errorf("issued out-of-file block %v", b)
		}
	}
}

func TestAggressiveChainStopsAtEOFAndResumesOnNextRequest(t *testing.T) {
	env := newFakeEnv()
	d := newDriver(t, NewOBA(), ModeAggressive, 1, 4, env)
	d.OnUserRequest(Request{Offset: 0, Size: 1}, 1, false)
	env.completeAll() // prefetches 1,2,3 then stops at EOF
	if got := len(env.issued); got != 3 {
		t.Fatalf("issued %d, want 3", got)
	}
	// User reads block 1 (satisfied): chain resumes from the real
	// cursor; blocks 2,3 cached so nothing new to fetch, and it stops
	// again without spinning.
	d.OnUserRequest(Request{Offset: 1, Size: 1}, 2, true)
	env.completeAll()
	if len(env.issued) != 3 {
		t.Errorf("resumed chain issued spurious fetches: %v", env.issued)
	}
}

func TestDryPatternDoesNotSpin(t *testing.T) {
	env := newFakeEnv()
	m := NewISPPM(1)
	d := NewDriver(DriverConfig{
		Predictor: m, Mode: ModeAggressive, Degree: staticWindow(1),
		File: 1, FileBlocks: 100, Env: env,
	})
	// Pre-train a two-block cycle 10 <-> 20 directly on the predictor
	// so the graph (not the OBA fallback) drives the chain, and mark
	// both blocks cached: the chain can always predict in-file blocks
	// but never finds work.
	for i, r := range []Request{{10, 1}, {20, 1}, {10, 1}, {20, 1}} {
		m.Observe(r, Tick(i+1))
	}
	env.cache[bid(1, 10)] = true
	env.cache[bid(1, 20)] = true
	d.OnUserRequest(Request{Offset: 10, Size: 1}, 5, true)
	if d.Stats().ChainStops == 0 {
		t.Error("cyclic cached pattern did not trip the dry-step guard")
	}
	if len(env.issued) != 0 {
		t.Errorf("dry chain issued %v", env.issued)
	}
}

// diskEnv hosts a driver the way the simulator does: Cached sees only
// landed blocks, never a prefetch in flight, and an accepted prefetch
// lands on the sim clock after a fixed disk latency, or is dropped
// there when its chain has moved on; done fires either way. dups counts blocks issued again
// while an operation of the same chain still had them in flight.
type diskEnv struct {
	e        *sim.Engine
	cache    map[blockdev.BlockID]bool
	inflight map[blockdev.BlockID][]*fakeOp
	issued   int
	dups     int
}

// diskEnvIssueCap is far above what the test's chain can issue without
// repeating itself; a driver that re-issues its own in-flight blocks
// reaches it inside one pump, and the refusal parks the chain instead
// of letting it spin.
const diskEnvIssueCap = 10_000

func (env *diskEnv) Cached(b blockdev.BlockID) bool { return env.cache[b] }

func (env *diskEnv) Prefetch(b blockdev.BlockID, _ bool, cancelled func() bool, done func()) bool {
	if env.issued++; env.issued > diskEnvIssueCap {
		return false
	}
	for _, op := range env.inflight[b] {
		if !op.cancelled() {
			env.dups++
		}
	}
	op := &fakeOp{b, cancelled, done}
	env.inflight[b] = append(env.inflight[b], op)
	env.e.After(sim.Milliseconds(2), env.e.Bind(func(*sim.Engine) {
		ops := env.inflight[b]
		for i := range ops {
			if ops[i] == op {
				env.inflight[b] = append(ops[:i], ops[i+1:]...)
				break
			}
		}
		if !cancelled() {
			env.cache[b] = true
		}
		done()
	}))
	return true
}

// TestUnlimitedCycleIssuesEachBlockOnce is ROADMAP 1(b): an unlimited
// window walking a learned cycle inside a file, on a host that does not
// count its prefetches in flight as cached, must not issue a block its
// chain already has in flight — before the driver remembered them, one
// pump re-issued the cycle without end. The user walks the cycle faster
// than the disk answers, so chains restart over blocks still in flight,
// and the run must drain within a bounded number of events.
func TestUnlimitedCycleIssuesEachBlockOnce(t *testing.T) {
	e := sim.NewEngine(1)
	env := &diskEnv{e: e, cache: map[blockdev.BlockID]bool{}, inflight: map[blockdev.BlockID][]*fakeOp{}}
	m := NewISPPM(1)
	d := NewDriver(DriverConfig{
		Predictor: m, Mode: ModeAggressive, Degree: staticWindow(0),
		File: 1, FileBlocks: 64, Env: env,
	})
	cycle := []blockdev.BlockNo{10, 20, 35} // intervals +10, +15, -25: a cycle IS_PPM:1 tells apart
	for i := 0; i < 3*len(cycle); i++ {
		m.Observe(Request{Offset: cycle[i%len(cycle)], Size: 1}, Tick(i+1))
	}
	for i := 0; i < 10*len(cycle); i++ {
		b := bid(1, int(cycle[i%len(cycle)]))
		e.After(sim.Milliseconds(float64(i)), e.Bind(func(e *sim.Engine) {
			satisfied := env.cache[b]
			env.cache[b] = true // the demand fetch
			d.OnUserRequest(Request{Offset: b.Block, Size: 1}, Tick(e.Now()), satisfied)
		}))
	}
	if e.RunUntil(func() bool { return e.Fired() >= 100_000 }); e.Fired() >= 100_000 {
		t.Fatal("the simulation never drained")
	}
	if env.dups != 0 || env.issued > diskEnvIssueCap {
		t.Errorf("%d prefetches issued, %d of them of a block the chain had in flight", env.issued, env.dups)
	}
	if d.Stats().Issued == 0 {
		t.Error("the chain issued nothing: the test exercised nothing")
	}
}

func TestFallbackAccounting(t *testing.T) {
	env := newFakeEnv()
	m := NewISPPM(1)
	d := newDriver(t, m, ModeAggressive, 1, 1000, env)
	// Only one request: everything prefetched comes from fallback.
	d.OnUserRequest(Request{Offset: 0, Size: 1}, 1, false)
	for i := 0; i < 5; i++ {
		env.completeOne()
	}
	st := d.Stats()
	if st.Issued == 0 || st.FallbackIssued != st.Issued {
		t.Errorf("fallback accounting: issued=%d fallback=%d", st.Issued, st.FallbackIssued)
	}
}

func TestModeString(t *testing.T) {
	if ModeOneShot.String() != "one-shot" || ModeAggressive.String() != "aggressive" {
		t.Error("mode strings wrong")
	}
}

func TestNewDriverValidation(t *testing.T) {
	env := newFakeEnv()
	bad := []DriverConfig{
		{Mode: ModeOneShot, Degree: staticWindow(1), File: 1, FileBlocks: 10, Env: env},            // nil predictor
		{Predictor: NewOBA(), Mode: ModeOneShot, Degree: staticWindow(1), File: 1, FileBlocks: 10}, // nil env
		{Predictor: NewOBA(), File: 1, FileBlocks: 10, Env: env},                                   // nil degree policy
		{Predictor: NewOBA(), Degree: staticWindow(1), File: 1, FileBlocks: 0, Env: env},
	}
	for i, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %d did not panic", i)
				}
			}()
			NewDriver(cfg)
		}()
	}
}

func TestISPPMAggressiveFollowsLearnedPattern(t *testing.T) {
	env := newFakeEnv()
	m := NewISPPM(1)
	d := newDriver(t, m, ModeAggressive, 1, 10000, env)
	reqs := paperPattern(6)
	for i, r := range reqs {
		// Mark requested blocks cached (as a demand fetch would).
		for _, b := range r.blocks() {
			env.cache[bid(1, int(b))] = true
		}
		d.OnUserRequest(r, Tick(i+1), i > 3)
	}
	// Drain some chain work and verify it follows the +3/+5 pattern
	// beyond the observed region.
	for i := 0; i < 20; i++ {
		env.completeOne()
	}
	want := map[blockdev.BlockID]bool{}
	// Continue the pattern from reqs[5]=(19,3): next (24,2),(27,3),(32,2)...
	for _, r := range []Request{{24, 2}, {27, 3}, {32, 2}} {
		for _, b := range r.blocks() {
			want[bid(1, int(b))] = true
		}
	}
	hit := 0
	for _, b := range env.issued {
		if want[b] {
			hit++
		}
	}
	if hit < 5 {
		t.Errorf("aggressive IS_PPM issued %d/%d pattern blocks; issued=%v", hit, len(want), env.issued)
	}
}

// blocks lists the block numbers covered by the request (test helper).
func (r Request) blocks() []blockdev.BlockNo {
	out := make([]blockdev.BlockNo, 0, r.Size)
	for b := r.Offset; b < r.End(); b++ {
		out = append(out, b)
	}
	return out
}
