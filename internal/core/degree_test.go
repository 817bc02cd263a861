package core

import (
	"bytes"
	"sync"
	"testing"
)

// staticWindow is the window a K<k>_ spec builds (Ln_ at 1, Agr_ at 0).
func staticWindow(k int) *DegreePolicy {
	return AlgSpec{Mode: ModeAggressive, MaxOutstanding: k}.NewDegreePolicy()
}

// feedWindow delivers one evaluation window of feedback, split
// timely:late:wasted in eighths, so a test can steer one verdict.
func feedWindow(p *DegreePolicy, timely, late, wasted int) {
	if timely+late+wasted != 8 {
		panic("feedWindow takes eighths")
	}
	const eighth = adaptiveWindow / 8
	for i := 0; i < timely*eighth; i++ {
		p.OnTimely()
	}
	for i := 0; i < late*eighth; i++ {
		p.OnLate()
	}
	for i := 0; i < wasted*eighth; i++ {
		p.OnWasted()
	}
}

func TestFixedDegreeIsStatic(t *testing.T) {
	for _, k := range []int{0, 1, 4} {
		p := staticWindow(k)
		if p.Allow() != k || p.cap != k {
			t.Errorf("static window %d: Allow=%d cap=%d, want both %d", k, p.Allow(), p.cap, k)
		}
	}
	// Feedback must not move a static window, which still books it.
	p := staticWindow(1)
	for i := 0; i < 4*adaptiveWindow; i++ {
		p.onIssued(i%2 == 0)
		p.OnTimely()
		p.OnLate()
		p.OnWasted()
	}
	p.OnBackpressure()
	if p.Allow() != 1 {
		t.Errorf("feedback moved a static window to %d", p.Allow())
	}
	const n = 4 * adaptiveWindow
	if got, want := p.Fates(), (Fates{Issued: n, Fallback: n / 2, Timely: n, Late: n, Wasted: n}); got != want {
		t.Errorf("static window booked %+v, want %+v", got, want)
	}
}

func TestFallbackFraction(t *testing.T) {
	p := staticWindow(1)
	if p.Fates().FallbackFraction() != 0 {
		t.Error("a window with no issue should report 0")
	}
	for i := 0; i < 3; i++ {
		p.onIssued(false)
	}
	p.onIssued(true)
	if got := p.Fates().FallbackFraction(); got != 0.25 {
		t.Errorf("FallbackFraction = %v, want 0.25", got)
	}
}

func TestAdaptiveStartsLinear(t *testing.T) {
	p := SpecAdAgrISPPM1.NewDegreePolicy()
	if p.Allow() != 1 {
		t.Errorf("initial Allow = %d, want 1 (linear until feedback earns more)", p.Allow())
	}
	if p.cap != DefaultAdaptiveCap {
		t.Errorf("cap = %d, want %d", p.cap, DefaultAdaptiveCap)
	}
}

func TestAdaptiveWidensWhenAccurateAndLate(t *testing.T) {
	p := SpecAdAgrISPPM1.NewDegreePolicy()
	// All-useful, heavily late windows: the timely-starved signature.
	feedWindow(p, 4, 4, 0)
	if p.Allow() != 1 {
		t.Fatalf("widened after one verdict, hysteresis is 2 (Allow=%d)", p.Allow())
	}
	feedWindow(p, 4, 4, 0)
	if p.Allow() != 2 {
		t.Fatalf("Allow = %d after two agreeing widen verdicts, want 2", p.Allow())
	}
	// Keep starving: the window climbs one step per two verdicts until
	// the hard cap, never past it.
	for i := 0; i < 40; i++ {
		feedWindow(p, 4, 4, 0)
	}
	if p.Allow() != DefaultAdaptiveCap {
		t.Errorf("Allow = %d after sustained starvation, want cap %d", p.Allow(), DefaultAdaptiveCap)
	}
	if _, widens, _ := p.Stats(); widens != uint64(DefaultAdaptiveCap-1) {
		t.Errorf("widens = %d, want %d", widens, DefaultAdaptiveCap-1)
	}
}

func TestAdaptiveClampsOnInaccuracy(t *testing.T) {
	p := SpecAdAgrISPPM1.NewDegreePolicy()
	for i := 0; i < 6; i++ {
		feedWindow(p, 4, 4, 0)
	}
	if p.Allow() < 3 {
		t.Fatalf("setup failed to widen (Allow=%d)", p.Allow())
	}
	// One garbage window — accuracy 2/8 — clamps straight to linear,
	// no hysteresis.
	feedWindow(p, 1, 1, 6)
	if p.Allow() != 1 {
		t.Errorf("Allow = %d after inaccurate window, want immediate clamp to 1", p.Allow())
	}
	if _, _, clamps := p.Stats(); clamps != 1 {
		t.Errorf("clamps = %d, want 1", clamps)
	}
	// Clamping when already linear is not counted again.
	feedWindow(p, 1, 1, 6)
	if _, _, clamps := p.Stats(); clamps != 1 {
		t.Errorf("clamps = %d after clamp-at-1, want still 1", clamps)
	}
}

func TestAdaptiveNarrowsWhenNothingLate(t *testing.T) {
	p := SpecAdAgrISPPM1.NewDegreePolicy()
	for i := 0; i < 4; i++ {
		feedWindow(p, 4, 4, 0)
	}
	if p.Allow() != 3 {
		t.Fatalf("setup Allow = %d, want 3", p.Allow())
	}
	// Accurate but nothing late: depth already covers the read-ahead
	// distance, so probe downward (two agreeing verdicts per step).
	feedWindow(p, 8, 0, 0)
	if p.Allow() != 3 {
		t.Fatalf("narrowed after one verdict, hysteresis is 2 (Allow=%d)", p.Allow())
	}
	feedWindow(p, 8, 0, 0)
	if p.Allow() != 2 {
		t.Errorf("Allow = %d after two all-timely windows, want 2", p.Allow())
	}
	// And never below 1.
	for i := 0; i < 10; i++ {
		feedWindow(p, 8, 0, 0)
	}
	if p.Allow() != 1 {
		t.Errorf("Allow = %d after sustained all-timely, want floor of 1", p.Allow())
	}
}

func TestAdaptiveHysteresisResetsOnDisagreement(t *testing.T) {
	p := SpecAdAgrISPPM1.NewDegreePolicy()
	feedWindow(p, 4, 4, 0) // widen verdict (streak 1)
	feedWindow(p, 3, 2, 3) // accuracy 5/8 = 0.625: neutral, streak resets
	feedWindow(p, 4, 4, 0) // widen verdict (streak 1 again)
	if p.Allow() != 1 {
		t.Errorf("Allow = %d, want 1: a neutral window must reset the widen streak", p.Allow())
	}
}

func TestAdaptiveBackpressureHalves(t *testing.T) {
	p := SpecAdAgrISPPM1.NewDegreePolicy()
	for i := 0; i < 12; i++ {
		feedWindow(p, 4, 4, 0)
	}
	if p.Allow() != 7 {
		t.Fatalf("setup Allow = %d, want 7", p.Allow())
	}
	p.OnBackpressure()
	if p.Allow() != 3 {
		t.Errorf("Allow = %d after backpressure, want 3 (halved)", p.Allow())
	}
	p.OnBackpressure()
	p.OnBackpressure()
	if p.Allow() != 1 {
		t.Errorf("Allow = %d after repeated backpressure, want floor of 1", p.Allow())
	}
	p.OnBackpressure()
	if p.Allow() != 1 {
		t.Errorf("Allow = %d, backpressure at 1 must stay 1", p.Allow())
	}
}

// TestAdaptiveConcurrentFeedback feeds an adaptive window from eight
// goroutines: first a mix of every event with the envelope checked
// throughout (the race detector's half), then an exact number of late
// events, none of which may be lost: six all-late windows are three
// widen steps.
func TestAdaptiveConcurrentFeedback(t *testing.T) {
	p := SpecAdAgrISPPM1.NewDegreePolicy()
	const goroutines = 8
	run := func(events int, feed func(g, i int)) {
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < events; i++ {
					feed(g, i)
					if a := p.Allow(); a < 1 || a > p.cap {
						t.Errorf("Allow = %d outside [1, %d] under concurrency", a, p.cap)
						return
					}
				}
			}(g)
		}
		wg.Wait()
	}
	run(1000, func(g, i int) { feedEvent(p, byte(g+i)) })

	p = SpecAdAgrISPPM1.NewDegreePolicy()
	run(6*adaptiveWindow/goroutines, func(int, int) { p.OnLate() })
	if window, widens, _ := p.Stats(); window != 4 || widens != 3 {
		t.Errorf("six all-late windows: window %d after %d widens, want 4 after 3", window, widens)
	}
	if late := p.Fates().Late; late != 6*adaptiveWindow {
		t.Errorf("%d late fates booked, want %d", late, 6*adaptiveWindow)
	}
}

// degreeSeeds is FuzzDegreePolicy's seed corpus. All but the first
// three run several evaluation windows, so the seeds alone widen to the
// cap, clamp, narrow and halve (TestDegreeSeedsMoveTheController).
var degreeSeeds = [][]byte{
	{0, 1, 2, 3, 0, 1, 0, 1},
	{3, 3, 3, 3},
	bytes.Repeat([]byte{1}, 16),
	// All late: widen step by step to the cap (4 at this length), then
	// sit there.
	bytes.Repeat([]byte{1}, 8*adaptiveWindow),
	// Widen, then an all-wasted window clamps to linear.
	append(bytes.Repeat([]byte{1}, 6*adaptiveWindow), bytes.Repeat([]byte{2}, adaptiveWindow)...),
	// Widen, then all-timely windows narrow back to 1.
	append(bytes.Repeat([]byte{1}, 4*adaptiveWindow), bytes.Repeat([]byte{0}, 4*adaptiveWindow)...),
	// Timely, late and wasted interleaved (accurate, starved), with a
	// backpressure signal after every six windows to halve the degree.
	bytes.Repeat(append(bytes.Repeat([]byte{0, 1, 1, 0, 0, 1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 2}, 6*adaptiveWindow/16), 3), 3),
	// Issues, plain and fallback, among the fates: no window moves on
	// an issue.
	bytes.Repeat([]byte{4, 1, 5, 1, 0, 4, 2, 1}, 2*adaptiveWindow),
}

// fuzzCap varies the controller's ceiling with the input's length.
func fuzzCap(events []byte) int { return 1 + len(events)%11 }

// feedEvent delivers one event to p: a fate, backpressure (3) or an
// issue, plain (4) or fallback (5).
func feedEvent(p *DegreePolicy, ev byte) {
	switch ev % 6 {
	case 0:
		p.OnTimely()
	case 1:
		p.OnLate()
	case 2:
		p.OnWasted()
	case 3:
		p.OnBackpressure()
	case 4:
		p.onIssued(false)
	case 5:
		p.onIssued(true)
	}
}

// bookedBy returns the fates a window must book for events.
func bookedBy(events []byte) Fates {
	var f Fates
	for _, ev := range events {
		switch ev % 6 {
		case 0:
			f.Timely++
		case 1:
			f.Late++
		case 2:
			f.Wasted++
		case 4:
			f.Issued++
		case 5:
			f.Issued++
			f.Fallback++
		}
	}
	return f
}

// adaptiveWindowOf builds an adaptive window with the given hard cap,
// as an Ad<cap>_ spec does.
func adaptiveWindowOf(cap int) *DegreePolicy {
	return AlgSpec{Mode: ModeAggressive, MaxOutstanding: cap, Adaptive: true}.NewDegreePolicy()
}

// TestDegreeSeedsMoveTheController keeps FuzzDegreePolicy's envelope
// check from going vacuous: a seed corpus too short to complete an
// evaluation window would leave Allow at 1 throughout. A narrow is a
// one-step drop on a feedback event that Stats does not count as a
// clamp.
func TestDegreeSeedsMoveTheController(t *testing.T) {
	var atCap, halved bool
	var clamps, narrows uint64
	for _, events := range degreeSeeds {
		p := adaptiveWindowOf(fuzzCap(events))
		for _, ev := range events {
			before := p.Allow()
			_, _, clampsBefore := p.Stats()
			feedEvent(p, ev)
			after, _, clampsAfter := p.Stats()
			atCap = atCap || p.cap > 1 && after == p.cap
			halved = halved || ev%6 == 3 && after < before
			if ev%6 < 3 && after == before-1 && clampsAfter == clampsBefore {
				narrows++
			}
		}
		_, _, c := p.Stats()
		clamps += c
	}
	if !atCap || !halved || clamps == 0 || narrows == 0 {
		t.Errorf("seeds reach cap %v, halve %v, clamp %d times, narrow %d times; want all",
			atCap, halved, clamps, narrows)
	}
}

// FuzzDegreePolicy drives prefetch windows with an arbitrary event
// sequence. Every window books every issue and fate it is given. A
// static window of 0, 1 or 4 never moves off its K. An adaptive one
// keeps its safety envelope: Allow stays in [1, cap] after every
// event, a feedback event moves it by at most one step or clamps it to
// 1, backpressure halves it (not below 1), an issue leaves it alone,
// Stats counts every widen and clamp it takes, and it evaluates on
// every 32nd fate, its evaluation window holding the fates since.
func FuzzDegreePolicy(f *testing.F) {
	for _, s := range degreeSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, events []byte) {
		for _, k := range []int{0, 1, 4} {
			p := staticWindow(k)
			for _, ev := range events {
				feedEvent(p, ev)
			}
			if window, widens, clamps := p.Stats(); p.Allow() != k || window != k || widens+clamps != 0 {
				t.Fatalf("static window %d moved: Allow %d, Stats (%d, %d, %d)", k, p.Allow(), window, widens, clamps)
			}
			if got, want := p.Fates(), bookedBy(events); got != want {
				t.Fatalf("static window %d booked %+v, want %+v", k, got, want)
			}
		}

		p := adaptiveWindowOf(fuzzCap(events))
		for _, ev := range events {
			before, widens, clamps := p.Stats()
			feedEvent(p, ev)
			a := p.Allow()
			if a < 1 || a > p.cap {
				t.Fatalf("Allow = %d outside [1, %d] after event %d", a, p.cap, ev%6)
			}
			window, widensAfter, clampsAfter := p.Stats()
			if window != a {
				t.Fatalf("Stats window = %d, Allow = %d", window, a)
			}
			fates := p.Fates()
			booked := fates.Timely + fates.Late + fates.Wasted
			if pending := p.winTimely + p.winLate + p.winWasted; pending != booked%adaptiveWindow {
				t.Fatalf("%d fates booked, %d pending evaluation, want %d", booked, pending, booked%adaptiveWindow)
			}
			var ok bool
			switch {
			case ev%6 == 3:
				ok = a == max(before/2, 1) && widensAfter == widens && clampsAfter == clamps
			case ev%6 > 3:
				ok = a == before && widensAfter == widens && clampsAfter == clamps
			case a == before+1:
				ok = widensAfter == widens+1 && clampsAfter == clamps
			case a == 1 && before > 1 && clampsAfter == clamps+1:
				ok = widensAfter == widens
			default:
				ok = (a == before || a == before-1) && widensAfter == widens && clampsAfter == clamps
			}
			if !ok {
				t.Fatalf("event %d moved the window %d -> %d, widens %d -> %d, clamps %d -> %d",
					ev%6, before, a, widens, widensAfter, clamps, clampsAfter)
			}
		}
		if got, want := p.Fates(), bookedBy(events); got != want {
			t.Fatalf("adaptive window booked %+v, want %+v", got, want)
		}
	})
}
