package core

import (
	"fmt"

	"repro/internal/blockdev"
)

// Mode selects how a predictor is exercised by the Driver.
type Mode int

// Driver modes.
const (
	// ModeOneShot is the paper's non-aggressive use: after every user
	// request, prefetch exactly the predicted next request and stop.
	ModeOneShot Mode = iota
	// ModeAggressive keeps walking the prediction chain, treating each
	// prefetched request as if the user had issued it, until the chain
	// leaves the file or a misprediction resets it (§3.1).
	ModeAggressive
)

// String names the mode.
func (m Mode) String() string {
	if m == ModeOneShot {
		return "one-shot"
	}
	return "aggressive"
}

// Env is what a Driver needs from its host file system: cache
// visibility and the ability to launch a low-priority block fetch.
//
// A host may also count its evictions, in a method Evictions() uint64
// that NewDriver looks for once. The count moves whenever a block for
// which Cached returned true may since return false (evicted, dropped,
// in flight and never landed), and not before Cached can see it gone;
// it need not be exact, only never silent. The driver reads it before
// the first Cached call of a walk and again before relying on what the
// walk saw (see anchor); without the method it walks anew every time.
type Env interface {
	// Cached reports whether the block is already in the cooperative
	// cache (from this driver's point of view: PAFS asks the global
	// directory, xFS each node asks about its own pool, which is what
	// makes xFS prefetching duplicate work on shared files, §4).
	Cached(b blockdev.BlockID) bool
	// Prefetch launches a low-priority fetch of b. fallback reports
	// whether the block was predicted by the cold-start OBA fallback;
	// the driver books it on the file's window, so a host may ignore
	// it. cancelled is polled when the backing store would start the
	// operation, and true drops it; done fires when the operation is
	// served or dropped. Prefetch reports whether the operation was accepted: an
	// environment under backpressure (the runtime's bounded prefetch
	// queue) may refuse, which parks the driver's chain until the next
	// user request.
	//
	// The driver may assume, of every accepted operation: cancelled is
	// polled at most once and only before service starts; done fires
	// exactly once for every accepted operation that is served or
	// dropped; after cancelled returned true it completes nothing (the
	// driver only takes the operation's record back). A refused
	// operation gets neither call. The driver reuses an operation's
	// record once its done has run, so a done fired again later would
	// complete whichever operation holds the record then, and a done
	// never fired leaves the record to the collector.
	Prefetch(b blockdev.BlockID, fallback bool, cancelled func() bool, done func()) (accepted bool)
}

// DriverConfig assembles a per-file prefetch driver.
type DriverConfig struct {
	// Predictor supplies predictions; the driver owns it.
	Predictor Predictor
	// Mode selects one-shot or aggressive operation.
	Mode Mode
	// Degree bounds in-flight prefetch operations for this file: the
	// driver consults Degree.Allow() before every issue. A static
	// window of 1 is the paper's *linear* throttle (§3.2), of 0 the
	// uncontrolled aggressive variant kept for the ablations. Every
	// change of the driver's in-flight count (issue +1, completion -1,
	// the release when a chain restarts or stops) is added to the
	// window's count, so drivers sharing a file's window sum into one.
	Degree *DegreePolicy
	// File is the file this driver serves.
	File blockdev.FileID
	// FileBlocks is the file length; predictions are clipped to
	// [0, FileBlocks) and the aggressive chain stops beyond it.
	FileBlocks blockdev.BlockNo
	// Env hosts the driver.
	Env Env
}

// maxDrySteps bounds consecutive chain predictions that yield no
// uncached block before the chain pauses; it prevents a cyclic, fully
// cached pattern from spinning forever, and sets how far ahead of the
// user an idle chain keeps looking.
const maxDrySteps = 64

// DriverStats counts one driver's walk. No host reports them: they are
// the driver tests' oracle. What became of the driver's prefetches,
// issues included, is booked on its file's window (DegreePolicy.Fates).
type DriverStats struct {
	Completed       uint64 // prefetch operations that finished
	Restarts        uint64 // chain resets after mispredictions
	ChainStops      uint64 // chain reached end of file or went dry, once per dry spell
	Rejected        uint64 // prefetches refused by the env (backpressure)
	PredictionSteps uint64 // Predict calls made while walking
	// HighWater is the most prefetches this driver ever had in flight
	// at once; ≤ the degree policy's cap by construction (exactly ≤ 1
	// under the paper's linear throttle), so it verifies the bound
	// directly.
	HighWater int
}

// pendingBlock is one block awaiting issue from the current predicted
// batch.
type pendingBlock struct {
	no       blockdev.BlockNo
	fallback bool
}

// Driver runs one file's prefetching: it feeds user requests to the
// predictor, maintains the speculative cursor, enforces the linear
// outstanding limit, and restarts the chain on mispredictions.
//
// Liveness note: a predictor whose graph cycles inside the file (for
// example a learned wrap-around back to block 0) keeps an aggressive
// chain alive indefinitely when the cache keeps evicting its work —
// only the cached-block skip and the dry-step guard pause it. The file
// systems bound this the way real ones do: StopChain on close and the
// environment's refusal to prefetch once the run is draining. Paused,
// a chain costs the requests that follow its path two predictions
// each, not a walk, until the host evicts something (see anchor).
type Driver struct {
	cfg       DriverConfig
	steps     stepper // the predictor's in-place steps
	now       Tick    // the tick of the request being observed
	degree    *DegreePolicy
	evictions evictionCounter // nil when the env does not count
	// cursors[live] is where the walk stands. A step is predicted, and
	// a request observed, into the other slot, and live flips to it
	// only when the walk takes that position.
	cursors [2]Cursor
	live    int
	// dry marks a dry spell: refill stopped the chain for want of work
	// and no request since restarted, closed or passed it, or led it to
	// an uncached block. A dry chain, once woken, stands at the user.
	dry         bool
	anchor      anchor
	pending     []pendingBlock // the batch; pending[next:] is still to issue
	next        int
	outstanding int
	gen         uint64
	stopped     bool
	stats       DriverStats
	free        []*prefetchOp // finished operation records, for issue to reuse
	// inFlight holds the blocks this generation has in flight, kept for
	// an aggressive chain under an unlimited window only. A bounded
	// window ends a pump by itself; an unlimited one ends only when the
	// walk runs dry, and a host whose Cached does not see prefetches in
	// flight (the simulator's) would let a learned cycle re-issue them
	// without end inside one pump.
	inFlight map[blockdev.BlockNo]struct{}
}

// evictionCounter is the optional part of Env; see there.
type evictionCounter interface{ Evictions() uint64 }

// anchor is what a walk that began at the user and found nothing to
// fetch leaves behind: its first prediction led to cursor expect, it
// took dry steps and stopped at far (at the dry guard, or with the next
// prediction past the end of the file), and every block on the way was
// seen cached, or in flight from this generation (which lands before
// inFlight forgets it), after the host's count read evictions. expect
// and far are copies of the walk's slots, taken once per walk. While
// the count stands they still are, so the walk from expect, should the
// next request land there, would repeat all but the first of those
// steps and go on from far: refill skips them. Anything else walks in
// full.
type anchor struct {
	ok          bool
	expect, far Cursor
	dry         int
	evictions   uint64
}

// NewDriver validates the configuration and returns a driver.
func NewDriver(cfg DriverConfig) *Driver {
	if cfg.Predictor == nil {
		panic("core: driver needs a predictor")
	}
	if cfg.Env == nil {
		panic("core: driver needs an env")
	}
	if cfg.Degree == nil {
		panic("core: driver needs a degree policy")
	}
	if cfg.FileBlocks <= 0 {
		panic(fmt.Sprintf("core: file %d has %d blocks", cfg.File, cfg.FileBlocks))
	}
	counter, _ := cfg.Env.(evictionCounter)
	d := &Driver{cfg: cfg, degree: cfg.Degree, evictions: counter, stopped: true}
	if steps, ok := cfg.Predictor.(stepper); ok {
		d.steps = steps
	} else {
		d.steps = valueSteps{cfg.Predictor, &d.now}
	}
	if cfg.Mode == ModeAggressive && cfg.Degree.cap == 0 {
		d.inFlight = make(map[blockdev.BlockNo]struct{})
	}
	return d
}

// Stats returns a snapshot of the driver counters.
func (d *Driver) Stats() DriverStats { return d.stats }

// Outstanding returns the number of in-flight prefetches for the
// current chain generation.
func (d *Driver) Outstanding() int { return d.outstanding }

// OnUserRequest feeds a real request to the driver. satisfied reports
// whether every requested block was already cached when the request
// arrived — the paper's criterion for "the system prediction was
// correct and there is no need to modify the prefetching path" (§3.1).
func (d *Driver) OnUserRequest(r Request, now Tick, satisfied bool) {
	d.now = now
	real := &d.cursors[1-d.live]
	d.steps.observeTo(r, real)
	switch d.cfg.Mode {
	case ModeOneShot:
		// Predict exactly the next request from the real position and
		// queue its blocks, replacing any batch not yet issued. No walk
		// follows, so the step may overwrite the position it came from.
		d.dropPending()
		pred, ok := d.steps.predictTo(real, real)
		d.stats.PredictionSteps++
		if ok {
			d.enqueue(pred)
		}
	case ModeAggressive:
		if !satisfied {
			// Misprediction: reset the chain to the real stream
			// position and restart from the last requested block.
			d.live = 1 - d.live
			d.restart()
		} else if d.stopped {
			// Correctly predicted but the chain had stopped (end of
			// file or dry); resume from the real position.
			d.live = 1 - d.live
			d.stopped = false
		} else {
			// Leave the running chain alone ("continues bringing new
			// blocks as if the user had not requested any").
			d.dry = false
		}
	}
	d.pump()
}

// StopChain halts prefetching until the next user request: the file
// was closed by its (last) user. Queued prefetch operations are
// orphaned via a generation bump; the learned model is kept, so a
// re-open resumes with everything the predictor knows.
func (d *Driver) StopChain() {
	d.dropPending()
	d.gen++
	clear(d.inFlight)
	d.changeOutstanding(-d.outstanding)
	d.stopped = true
	d.dry = false
}

// restart begins a new chain generation from the live cursor.
func (d *Driver) restart() {
	d.dropPending()
	d.gen++
	clear(d.inFlight)
	d.changeOutstanding(-d.outstanding)
	d.stopped = false
	d.dry = false
	d.stats.Restarts++
}

// dropPending empties the batch and keeps its storage for the next.
func (d *Driver) dropPending() { d.pending, d.next = d.pending[:0], 0 }

// changeOutstanding adjusts the logical in-flight count, maintains the
// high-water mark, and adds the change to the file's window.
func (d *Driver) changeOutstanding(delta int) {
	if delta == 0 {
		return
	}
	d.outstanding += delta
	if d.outstanding > d.stats.HighWater {
		d.stats.HighWater = d.outstanding
	}
	d.degree.addInFlight(delta, d.cfg.File)
}

// enqueue clips a predicted request to the file and queues its blocks.
func (d *Driver) enqueue(p Prediction) (added bool) {
	start, end := p.Offset, p.End()
	if start < 0 {
		start = 0
	}
	if end > d.cfg.FileBlocks {
		end = d.cfg.FileBlocks
	}
	for b := start; b < end; b++ {
		blk := blockdev.BlockID{File: d.cfg.File, Block: b}
		if d.cfg.Env.Cached(blk) {
			continue
		}
		if d.inFlight != nil {
			if _, busy := d.inFlight[b]; busy {
				continue
			}
		}
		d.pending = append(d.pending, pendingBlock{no: b, fallback: p.Fallback})
		added = true
	}
	return added
}

// inFile reports whether any part of the prediction lies inside the
// file; a fully outside prediction ends the aggressive chain.
func (d *Driver) inFile(p Prediction) bool {
	return p.End() > 0 && p.Offset < d.cfg.FileBlocks
}

// pump issues pending blocks up to the policy's current window,
// walking the chain for more work when aggressive and the batch runs
// dry. The window is re-read every iteration: an adaptive policy may
// widen or clamp between issues, and a clamp simply stops further
// issues — blocks already in flight are left to complete.
func (d *Driver) pump() {
	for lim := d.degree.Allow(); lim == 0 || d.outstanding < lim; lim = d.degree.Allow() {
		if len(d.pending) == 0 && !d.refill() {
			return
		}
		pb := d.pending[d.next]
		if d.next++; d.next == len(d.pending) {
			d.dropPending()
		}
		blk := blockdev.BlockID{File: d.cfg.File, Block: pb.no}
		if d.cfg.Env.Cached(blk) {
			continue // raced in via a demand fetch since enqueue
		}
		if !d.issue(blk, pb.fallback) {
			// Backpressure: the env refused the operation. Park the
			// chain; OnUserRequest resumes it once the queue drains
			// enough for the next satisfied request to restart it.
			d.stopped = true
			return
		}
	}
}

// refill walks the prediction chain until it finds uncached work.
// It returns false when there is nothing to issue now.
func (d *Driver) refill() bool {
	if d.cfg.Mode != ModeAggressive || d.stopped {
		return false
	}
	// Read before the walk's first Cached call, so that an eviction
	// racing with the walk makes the next request walk in full.
	var a anchor
	skip := false
	if d.evictions != nil {
		a.evictions = d.evictions.Evictions()
		skip = d.dry && d.anchor.ok && d.cursors[d.live] == d.anchor.expect && a.evictions == d.anchor.evictions
	}
	d.anchor.ok = false
	for first := true; ; first = false {
		next := &d.cursors[1-d.live]
		pred, ok := d.steps.predictTo(&d.cursors[d.live], next)
		d.stats.PredictionSteps++
		if !ok || !d.inFile(pred) {
			// End of file, past blocks seen cached: that stays so. What
			// the model could not predict it may after the next request.
			a.ok = ok && a.dry > 0
			break
		}
		if first {
			a.expect = *next
			if skip {
				d.cursors[d.live], a.dry = d.anchor.far, d.anchor.dry-1
				continue
			}
		}
		d.live = 1 - d.live
		if d.enqueue(pred) {
			d.dry = false
			return true
		}
		if a.dry++; a.dry >= maxDrySteps {
			a.ok = true
			break
		}
	}
	d.stopped = true
	if d.dry { // a spell already counted, and a walk that began at the user
		a.far = d.cursors[d.live]
		d.anchor = a
	} else {
		d.dry = true
		d.stats.ChainStops++
	}
	return false
}

// prefetchOp is one launched prefetch as the driver tracks it. Its two
// callbacks are bound when the record is made, and the record goes
// back on the driver's free list when done runs (see Env for what that
// asks of the environment), so a running chain allocates nothing.
type prefetchOp struct {
	d   *Driver
	gen uint64 // chain generation the operation was issued under
	blk blockdev.BlockNo
	// finished latches the operation's one release.
	finished  bool
	cancelled func() bool
	done      func()
}

// isCancelled keys on the generation only: a same-generation operation
// always runs to completion so the outstanding count stays consistent
// (stale generations reset it in restart).
func (op *prefetchOp) isCancelled() bool { return op.d.gen != op.gen }

// complete undoes the operation's +1 exactly once. An operation from
// an abandoned chain (the generation moved under it) finds its slot
// already reclaimed by StopChain/restart's bulk reset, and a
// completion that fires twice hits the latch — under a K>1 window a
// stray second decrement would silently free a slot and let the window
// overshoot its bound.
func (op *prefetchOp) complete() {
	if op.finished {
		return
	}
	op.finished = true
	d := op.d
	if d.gen == op.gen {
		delete(d.inFlight, op.blk)
		d.changeOutstanding(-1)
		d.stats.Completed++
		d.pump()
	}
	// Only now, so that the operations the pump issued took other
	// records and the latch still stands behind this one.
	d.free = append(d.free, op)
}

// issue launches one prefetch under the current generation, so a chain
// restart orphans, and the disk queue drops, stale operations. It
// reports whether the environment accepted the operation.
func (d *Driver) issue(blk blockdev.BlockID, fallback bool) bool {
	var op *prefetchOp
	if n := len(d.free); n > 0 {
		op, d.free = d.free[n-1], d.free[:n-1]
	} else {
		op = &prefetchOp{d: d}
		op.cancelled, op.done = op.isCancelled, op.complete
	}
	op.gen, op.blk, op.finished = d.gen, blk.Block, false
	if d.inFlight != nil {
		d.inFlight[blk.Block] = struct{}{}
	}
	d.changeOutstanding(1)
	if !d.cfg.Env.Prefetch(blk, fallback, op.cancelled, op.done) {
		op.finished = true
		delete(d.inFlight, blk.Block)
		d.changeOutstanding(-1)
		d.free = append(d.free, op)
		d.stats.Rejected++
		d.degree.OnBackpressure()
		return false
	}
	d.degree.onIssued(fallback)
	return true
}
