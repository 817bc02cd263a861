package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/blockdev"
)

// DegreePolicy is one file's prefetch window: how many prefetch
// operations the file may have in flight at once. The paper pins it
// at one — the *linear* throttle of §3.2. A static window holds the
// spec's MaxOutstanding for good (1 for Ln_, k for K<k>_, 0 for the
// unlimited Agr_); an adaptive one (Ad_) is an FDP-style feedback
// controller whose window moves within [1, MaxOutstanding].
//
// The driver reads Allow before every issue, books every issue the env
// accepts and reports refusals through OnBackpressure; the host file
// system feeds the rest from its prefetched-block lifecycle:
//
//	OnTimely — a prefetched block was demanded after it arrived
//	OnLate   — a demand read had to wait on an in-flight prefetch
//	OnWasted — a prefetched block was evicted without ever being used
//
// The window is where each of those fates is booked, once, in either
// tier (see Fates); only an adaptive window also steers by them. It is
// safe for concurrent use: the runtime calls Allow under the per-file
// driver mutex but delivers feedback from whatever goroutine observed
// the event. Build one with AlgSpec.NewDegreePolicy.
//
// The window also counts what it bounds: the file's prefetches in
// flight, summed over every driver of the file, with their high-water
// mark and how many updates took the count past cap. That is the
// instrument behind the paper's linear invariant: PAFS, and a lapcache
// cluster, run one driver per file, so a file's high-water stays at
// the driver's limit (1 for Ln_Agr_*), while xFS runs a driver per
// (node, file) and a shared file's count goes past it, the "not really
// linear" behaviour of §4 made measurable.
type DegreePolicy struct {
	// cap is the largest value Allow can ever return; 0 means
	// unlimited. The high-water mark, OverCap and the chaos audit
	// check against it rather than the instantaneous Allow.
	cap      int
	adaptive bool
	strict   bool // an update past cap panics (SetStrict)

	// inFlight is written by the file's drivers alone, which every host
	// serializes per file, so it takes no lock; the counters a
	// concurrent reader takes (HighWater, OverCap, Fates) are atomics.
	inFlight  int
	highWater atomic.Int64
	overCap   atomic.Uint64

	// The file's prefetches by fate over the window's life (Fates).
	issued, fallback, timely, late, wasted atomic.Uint64

	// degree is the window. A static one never writes it after
	// construction, so its Allow reads it without mu.
	mu           sync.Mutex
	degree       int
	winTimely    uint64 // fates in the current evaluation window
	winLate      uint64
	winWasted    uint64
	widenStreak  int
	narrowStreak int
	widens       uint64 // +1 steps taken
	clamps       uint64 // hard resets to linear
}

// DefaultAdaptiveCap is the hard ceiling an adaptive window may reach
// unless the spec overrides it.
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

// Allow returns the current outstanding-prefetch bound for the file;
// 0 means unlimited. It never returns a negative value.
func (p *DegreePolicy) Allow() int {
	if !p.adaptive {
		return p.degree
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.degree
}

// SetStrict makes an update that takes the file's prefetch count past
// cap panic instead of being counted: the runtime's -strict.
func (p *DegreePolicy) SetStrict() { p.strict = true }

// HighWater returns the most prefetches the file ever had in flight at
// once, over all its drivers.
func (p *DegreePolicy) HighWater() int { return int(p.highWater.Load()) }

// OverCap returns how many updates took the file's prefetch count past
// cap (never, under an unlimited cap).
func (p *DegreePolicy) OverCap() uint64 { return p.overCap.Load() }

// addInFlight moves the file's prefetch count by a driver's delta
// (issue +1, completion -1, a restarted chain's release); f names the
// file in a panic. A count below zero is a driver bug and panics.
func (p *DegreePolicy) addInFlight(delta int, f blockdev.FileID) {
	n := p.inFlight + delta
	if n < 0 {
		panic(fmt.Sprintf("core: file %d outstanding prefetches went negative (%d)", f, n))
	}
	p.inFlight = n
	if int64(n) > p.highWater.Load() {
		p.highWater.Store(int64(n))
	}
	if p.cap > 0 && n > p.cap {
		p.overCap.Add(1)
		if p.strict {
			panic(fmt.Sprintf("core: file %d has %d outstanding prefetches, linear limit is %d", f, n, p.cap))
		}
	}
}

// Fates counts one file's prefetches by what became of them, over its
// window's whole life: Issued operations the env accepted, Fallback of
// those predicted by IS_PPM's OBA fallback, and the prefetched blocks
// demanded after they arrived (Timely), demanded while still in flight
// (Late) or evicted unread (Wasted). A host's totals are sums over its
// files' windows.
type Fates struct {
	Issued, Fallback, Timely, Late, Wasted uint64
}

// Add returns the fieldwise sum f + g.
func (f Fates) Add(g Fates) Fates {
	return Fates{f.Issued + g.Issued, f.Fallback + g.Fallback,
		f.Timely + g.Timely, f.Late + g.Late, f.Wasted + g.Wasted}
}

// Sub returns the fieldwise difference f - g: what was booked between
// an earlier sum g and f.
func (f Fates) Sub(g Fates) Fates {
	return Fates{f.Issued - g.Issued, f.Fallback - g.Fallback,
		f.Timely - g.Timely, f.Late - g.Late, f.Wasted - g.Wasted}
}

// FallbackFraction returns the share of issues the OBA fallback
// predicted (§2.2: <1% on CHARISMA, ~25% on Sprite), 0 before any.
func (f Fates) FallbackFraction() float64 {
	if f.Issued == 0 {
		return 0
	}
	return float64(f.Fallback) / float64(f.Issued)
}

// Fates returns the file's prefetch fates so far. Each count is read
// atomically; under concurrent booking the five are not one instant's.
func (p *DegreePolicy) Fates() Fates {
	return Fates{p.issued.Load(), p.fallback.Load(),
		p.timely.Load(), p.late.Load(), p.wasted.Load()}
}

// onIssued books one prefetch the env accepted; the driver's issue is
// its one caller.
func (p *DegreePolicy) onIssued(fallback bool) {
	p.issued.Add(1)
	if fallback {
		p.fallback.Add(1)
	}
}

// OnTimely records a prefetched block demanded after it arrived.
func (p *DegreePolicy) OnTimely() {
	p.timely.Add(1)
	p.feed(&p.winTimely)
}

// OnLate records a demand read that caught its prefetch in flight.
func (p *DegreePolicy) OnLate() {
	p.late.Add(1)
	p.feed(&p.winLate)
}

// OnWasted records a prefetched block evicted unread.
func (p *DegreePolicy) OnWasted() {
	p.wasted.Add(1)
	p.feed(&p.winWasted)
}

// OnBackpressure reacts to an env refusal: the prefetch queue is full,
// so depth is only creating rejects. An adaptive window halves at once
// and must re-earn the depth.
func (p *DegreePolicy) OnBackpressure() {
	if !p.adaptive {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if half := p.degree / 2; half >= 1 {
		p.degree = half
	}
	p.widenStreak, p.narrowStreak = 0, 0
}

// Stats returns the window and how many widen steps and clamps to
// linear the controller has taken (both 0 on a static window).
func (p *DegreePolicy) Stats() (window int, widens, clamps uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.degree, p.widens, p.clamps
}

func (p *DegreePolicy) feed(windowCtr *uint64) {
	if !p.adaptive {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	*windowCtr++
	if p.winTimely+p.winLate+p.winWasted >= adaptiveWindow {
		p.evaluate()
	}
}

// evaluate runs one controller step over the accumulated window, in
// the spirit of FDP's conservative→aggressive state machine: it
// computes the useful fraction (accuracy) and the late fraction of
// resolved prefetches, then
//
//   - widens the window by one step (up to cap) when predictions are
//     accurate *and* the file is timely-starved — demand reads keep
//     catching prefetches in flight, so depth would hide latency;
//   - narrows by one step when accuracy is high but nothing is late —
//     the current depth already covers the read-ahead distance;
//   - clamps straight back to linear (degree 1) when accuracy falls
//     below accuracyLow — the predictor is wrong, waste is rising, and
//     the paper's throttle is the safe floor.
//
// Both gradual moves are gated by hysteresis consecutive agreeing
// verdicts; the clamp is immediate. Caller holds p.mu.
func (p *DegreePolicy) evaluate() {
	total := float64(p.winTimely + p.winLate + p.winWasted)
	accuracy := float64(p.winTimely+p.winLate) / total
	lateRate := float64(p.winLate) / total
	p.winTimely, p.winLate, p.winWasted = 0, 0, 0

	switch {
	case accuracy < accuracyLow:
		// The predictor is missing; every extra slot is another wasted
		// block polluting the cache. Back to the paper's throttle now.
		if p.degree != 1 {
			p.clamps++
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
			p.widens++
			p.widenStreak = 0
		}
	case accuracy >= accuracyHigh && lateRate == 0 && p.degree > 1:
		// Everything useful arrives ahead of the reader: the window is
		// at least deep enough, so probe downward to shed speculation.
		p.widenStreak = 0
		if p.narrowStreak++; p.narrowStreak >= hysteresis {
			p.degree--
			p.narrowStreak = 0
		}
	default:
		p.widenStreak, p.narrowStreak = 0, 0
	}
}
