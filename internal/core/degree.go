package core

import (
	"sync"

	"repro/internal/blockdev"
)

// DegreePolicy decides how many prefetch operations a single file may
// have in flight at once. The paper hardwires this to one — the
// *linear* throttle of §3.2 — but production prefetchers modulate the
// degree from measured accuracy and timeliness (GHB/FDP-style
// feedback). Extracting the decision into a policy lets the same
// driver run bit-exact paper baselines and feedback-controlled
// variants side by side.
//
// Allow is read by the driver before every issue; the feedback hooks
// are fed by the host file system from its prefetched-block lifecycle:
//
//	OnTimely — a prefetched block was demanded after it arrived
//	OnLate   — a demand read had to wait on an in-flight prefetch
//	OnWasted — a prefetched block was evicted without ever being used
//
// Implementations must be safe for concurrent use: the runtime calls
// Allow under the per-file driver mutex but delivers feedback from
// whatever goroutine observed the event.
type DegreePolicy interface {
	// Allow returns the current outstanding-prefetch bound for the
	// file; 0 means unlimited. It never returns a negative value.
	Allow() int
	// Cap returns the largest value Allow can ever return; 0 means
	// unlimited. Auditors (the chaos ledger) check high-water marks
	// against Cap rather than the instantaneous Allow.
	Cap() int

	OnTimely()
	OnLate()
	OnWasted()
}

// backpressureAware is implemented by policies that want to know when
// the environment refused a prefetch (the runtime's bounded queue was
// full). The driver probes for it on every rejection.
type backpressureAware interface {
	OnBackpressure()
}

// FixedDegree is the static policy: Allow is always K. K=1 is the
// paper's strict linear throttle, bit-exact with the historical
// hardwired behavior; K=0 is the unlimited aggressive variant kept
// for the ablation benches. Feedback is ignored.
type FixedDegree struct {
	K int
}

// Allow implements DegreePolicy.
func (p *FixedDegree) Allow() int { return p.K }

// Cap implements DegreePolicy.
func (p *FixedDegree) Cap() int { return p.K }

// OnTimely implements DegreePolicy (no-op).
func (p *FixedDegree) OnTimely() {}

// OnLate implements DegreePolicy (no-op).
func (p *FixedDegree) OnLate() {}

// OnWasted implements DegreePolicy (no-op).
func (p *FixedDegree) OnWasted() {}

// DefaultAdaptiveCap is the hard ceiling an AdaptiveFDP window may
// reach unless the spec overrides it.
const DefaultAdaptiveCap = 8

// The feedback controller's constants (DESIGN §12): events per
// evaluation window; the useful fraction at or above which the window
// may widen and below which it clamps to linear; the late fraction at
// or above which a file counts as timely-starved; and how many
// consecutive agreeing verdicts a gradual move needs, so one noisy
// evaluation cannot flap the degree.
const (
	adaptiveWindow = 32
	accuracyHigh   = 0.75
	accuracyLow    = 0.40
	lateHigh       = 0.10
	hysteresis     = 2
)

// AdaptiveFDP is a per-file feedback-directed degree controller in the
// spirit of FDP's conservative→aggressive state machine: every
// adaptiveWindow feedback events it computes the useful fraction
// (accuracy) and the late fraction of resolved prefetches, then
//
//   - widens the window by one step (up to Cap) when predictions are
//     accurate *and* the file is timely-starved — demand reads keep
//     catching prefetches in flight, so depth would hide latency;
//   - narrows by one step when accuracy is high but nothing is late —
//     the current depth already covers the read-ahead distance;
//   - clamps straight back to linear (degree 1) when accuracy falls
//     below accuracyLow — the predictor is wrong, waste is rising, and
//     the paper's throttle is the safe floor.
//
// Both gradual moves are gated by hysteresis consecutive agreeing
// verdicts; the clamp is immediate. A backpressure signal from the
// environment also halves the window at once: the prefetch queue is
// full, so depth is only creating rejects.
//
// The window always stays within [1, Cap]. The zero value is not
// usable; construct with NewAdaptiveFDP.
type AdaptiveFDP struct {
	cap int // the hard maximum window; never exceeded

	mu           sync.Mutex
	degree       int
	timely       uint64 // events in the current window
	late         uint64
	wasted       uint64
	widenStreak  int
	narrowStreak int
	stats        AdaptiveStats
}

// AdaptiveStats is a snapshot of one controller's activity.
type AdaptiveStats struct {
	Degree       int    // current window
	Cap          int    // hard ceiling
	Evals        uint64 // completed evaluation windows
	Widens       uint64 // +1 steps taken
	Narrows      uint64 // -1 steps taken
	Clamps       uint64 // hard resets to linear
	Backpressure uint64 // env-refusal signals received
	Timely       uint64 // lifetime feedback totals
	Late         uint64
	Wasted       uint64
	LastAccuracy float64 // useful fraction at the last evaluation
	LastLateRate float64 // late fraction at the last evaluation
}

// NewAdaptiveFDP builds a controller with hard cap cap (>= 1) starting
// at degree 1 — linear until the feedback earns more.
func NewAdaptiveFDP(cap int) *AdaptiveFDP {
	return &AdaptiveFDP{cap: cap, degree: 1}
}

// Allow implements DegreePolicy.
func (p *AdaptiveFDP) Allow() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.degree
}

// Cap implements DegreePolicy.
func (p *AdaptiveFDP) Cap() int { return p.cap }

// OnTimely implements DegreePolicy.
func (p *AdaptiveFDP) OnTimely() { p.feed(&p.timely, &p.stats.Timely) }

// OnLate implements DegreePolicy.
func (p *AdaptiveFDP) OnLate() { p.feed(&p.late, &p.stats.Late) }

// OnWasted implements DegreePolicy.
func (p *AdaptiveFDP) OnWasted() { p.feed(&p.wasted, &p.stats.Wasted) }

// OnBackpressure reacts to an env refusal: the prefetch queue is full,
// so halve the window immediately and make the controller re-earn the
// depth. Implements the driver's backpressureAware probe.
func (p *AdaptiveFDP) OnBackpressure() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stats.Backpressure++
	if half := p.degree / 2; half >= 1 {
		p.degree = half
	}
	p.widenStreak, p.narrowStreak = 0, 0
}

// Stats returns a snapshot of the controller.
func (p *AdaptiveFDP) Stats() AdaptiveStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.stats
	s.Degree = p.degree
	s.Cap = p.cap
	return s
}

func (p *AdaptiveFDP) feed(windowCtr, lifeCtr *uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	*windowCtr++
	*lifeCtr++
	if p.timely+p.late+p.wasted >= adaptiveWindow {
		p.evaluate()
	}
}

// evaluate runs one controller step over the accumulated window.
// Caller holds p.mu.
func (p *AdaptiveFDP) evaluate() {
	total := float64(p.timely + p.late + p.wasted)
	accuracy := float64(p.timely+p.late) / total
	lateRate := float64(p.late) / total
	p.timely, p.late, p.wasted = 0, 0, 0
	p.stats.Evals++
	p.stats.LastAccuracy, p.stats.LastLateRate = accuracy, lateRate

	switch {
	case accuracy < accuracyLow:
		// The predictor is missing; every extra slot is another wasted
		// block polluting the cache. Back to the paper's throttle now.
		if p.degree != 1 {
			p.stats.Clamps++
		}
		p.degree = 1
		p.widenStreak, p.narrowStreak = 0, 0
	case accuracy >= accuracyHigh && lateRate >= lateHigh:
		p.narrowStreak = 0
		if p.degree >= p.cap {
			p.widenStreak = 0
			return
		}
		if p.widenStreak++; p.widenStreak >= hysteresis {
			p.degree++
			p.stats.Widens++
			p.widenStreak = 0
		}
	case accuracy >= accuracyHigh && lateRate == 0 && p.degree > 1:
		// Everything useful arrives ahead of the reader: the window is
		// at least deep enough, so probe downward to shed speculation.
		p.widenStreak = 0
		if p.narrowStreak++; p.narrowStreak >= hysteresis {
			p.degree--
			p.stats.Narrows++
			p.narrowStreak = 0
		}
	default:
		p.widenStreak, p.narrowStreak = 0, 0
	}
}

// DegreeSet hands out one DegreePolicy per file, built by a factory.
// The simulator tier uses it to route the timely/late/wasted feedback
// it already collects (fscommon's prefetched-block lifecycle) to the
// controller of the file that issued the prefetch. It is not
// goroutine-safe; the sim runs on one event loop. The runtime engine
// keeps its policies on its own fileState instead.
type DegreeSet struct {
	factory  func() DegreePolicy
	policies map[blockdev.FileID]DegreePolicy
}

// NewDegreeSet builds a per-file policy registry for the spec.
func NewDegreeSet(spec AlgSpec) *DegreeSet {
	return &DegreeSet{
		factory:  spec.NewDegreePolicy,
		policies: make(map[blockdev.FileID]DegreePolicy),
	}
}

// For returns the file's policy, creating it on first use.
func (s *DegreeSet) For(f blockdev.FileID) DegreePolicy {
	p, ok := s.policies[f]
	if !ok {
		p = s.factory()
		s.policies[f] = p
	}
	return p
}

// OnTimely routes a timely-use event to the file's controller.
func (s *DegreeSet) OnTimely(f blockdev.FileID) { s.For(f).OnTimely() }

// OnLate routes a demand-hit-in-flight event to the file's controller.
func (s *DegreeSet) OnLate(f blockdev.FileID) { s.For(f).OnLate() }

// OnWasted routes an unused-eviction event to the file's controller.
func (s *DegreeSet) OnWasted(f blockdev.FileID) { s.For(f).OnWasted() }
