package core

import (
	"bytes"
	"sync"
	"testing"
)

// feedWindow delivers one evaluation window of feedback, split
// timely:late:wasted in eighths, so a test can steer one verdict.
func feedWindow(p *AdaptiveFDP, timely, late, wasted int) {
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
		p := &FixedDegree{K: k}
		if p.Allow() != k || p.Cap() != k {
			t.Errorf("FixedDegree{%d}: Allow=%d Cap=%d, want both %d", k, p.Allow(), p.Cap(), k)
		}
	}
	// Feedback must be a no-op on the static policy.
	p := &FixedDegree{K: 1}
	p.OnTimely()
	p.OnLate()
	p.OnWasted()
	if p.Allow() != 1 {
		t.Error("feedback moved a FixedDegree")
	}
}

func TestAdaptiveStartsLinear(t *testing.T) {
	p := NewAdaptiveFDP(DefaultAdaptiveCap)
	if p.Allow() != 1 {
		t.Errorf("initial Allow = %d, want 1 (linear until feedback earns more)", p.Allow())
	}
	if p.Cap() != DefaultAdaptiveCap {
		t.Errorf("Cap = %d, want %d", p.Cap(), DefaultAdaptiveCap)
	}
}

func TestAdaptiveWidensWhenAccurateAndLate(t *testing.T) {
	p := NewAdaptiveFDP(DefaultAdaptiveCap)
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
	s := p.Stats()
	if s.Widens != uint64(DefaultAdaptiveCap-1) {
		t.Errorf("Widens = %d, want %d", s.Widens, DefaultAdaptiveCap-1)
	}
}

func TestAdaptiveClampsOnInaccuracy(t *testing.T) {
	p := NewAdaptiveFDP(DefaultAdaptiveCap)
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
	if s := p.Stats(); s.Clamps != 1 {
		t.Errorf("Clamps = %d, want 1", s.Clamps)
	}
	// Clamping when already linear is not counted again.
	feedWindow(p, 1, 1, 6)
	if s := p.Stats(); s.Clamps != 1 {
		t.Errorf("Clamps = %d after clamp-at-1, want still 1", s.Clamps)
	}
}

func TestAdaptiveNarrowsWhenNothingLate(t *testing.T) {
	p := NewAdaptiveFDP(DefaultAdaptiveCap)
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
	p := NewAdaptiveFDP(DefaultAdaptiveCap)
	feedWindow(p, 4, 4, 0) // widen verdict (streak 1)
	feedWindow(p, 3, 2, 3) // accuracy 5/8 = 0.625: neutral, streak resets
	feedWindow(p, 4, 4, 0) // widen verdict (streak 1 again)
	if p.Allow() != 1 {
		t.Errorf("Allow = %d, want 1: a neutral window must reset the widen streak", p.Allow())
	}
}

func TestAdaptiveBackpressureHalves(t *testing.T) {
	p := NewAdaptiveFDP(DefaultAdaptiveCap)
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
	if s := p.Stats(); s.Backpressure != 4 {
		t.Errorf("Backpressure = %d, want 4", s.Backpressure)
	}
}

func TestAdaptiveConcurrentFeedback(t *testing.T) {
	p := NewAdaptiveFDP(DefaultAdaptiveCap)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				switch (g + i) % 4 {
				case 0:
					p.OnTimely()
				case 1:
					p.OnLate()
				case 2:
					p.OnWasted()
				case 3:
					p.OnBackpressure()
				}
				if a := p.Allow(); a < 1 || a > p.Cap() {
					panic("Allow out of [1, Cap] under concurrency")
				}
			}
		}(g)
	}
	wg.Wait()
	s := p.Stats()
	if s.Timely+s.Late+s.Wasted != 6000 {
		t.Errorf("lifetime feedback total = %d, want 6000", s.Timely+s.Late+s.Wasted)
	}
}

func TestDegreeSetRoutesPerFile(t *testing.T) {
	s := NewDegreeSet(SpecAdAgrISPPM1)
	a, b := s.For(1), s.For(2)
	if a == b {
		t.Fatal("distinct files share a policy")
	}
	if s.For(1) != a {
		t.Fatal("For is not stable per file")
	}
	// Starve file 1 only; file 2 must stay linear.
	for i := 0; i < 200; i++ {
		s.OnTimely(1)
		s.OnLate(1)
	}
	if a.Allow() <= 1 {
		t.Errorf("file 1 Allow = %d, want widened", a.Allow())
	}
	if b.Allow() != 1 {
		t.Errorf("file 2 Allow = %d, want untouched 1", b.Allow())
	}

	// A strict-linear spec hands out static policies.
	ls := NewDegreeSet(SpecLnAgrISPPM1)
	if _, ok := ls.For(1).(*FixedDegree); !ok {
		t.Errorf("linear spec policy = %T, want *FixedDegree", ls.For(1))
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
}

// fuzzCap varies the controller's ceiling with the input's length.
func fuzzCap(events []byte) int { return 1 + len(events)%11 }

func feedEvent(p *AdaptiveFDP, ev byte) {
	switch ev % 4 {
	case 0:
		p.OnTimely()
	case 1:
		p.OnLate()
	case 2:
		p.OnWasted()
	case 3:
		p.OnBackpressure()
	}
}

// TestDegreeSeedsMoveTheController keeps FuzzDegreePolicy's envelope
// check from going vacuous: a seed corpus too short to complete an
// evaluation window would leave Allow at 1 throughout.
func TestDegreeSeedsMoveTheController(t *testing.T) {
	var atCap, halved bool
	var clamps, narrows uint64
	for _, events := range degreeSeeds {
		p := NewAdaptiveFDP(fuzzCap(events))
		for _, ev := range events {
			before := p.Allow()
			feedEvent(p, ev)
			atCap = atCap || p.Cap() > 1 && p.Allow() == p.Cap()
			halved = halved || ev%4 == 3 && p.Allow() < before
		}
		s := p.Stats()
		clamps += s.Clamps
		narrows += s.Narrows
	}
	if !atCap || !halved || clamps == 0 || narrows == 0 {
		t.Errorf("seeds reach cap %v, halve %v, clamp %d times, narrow %d times; want all",
			atCap, halved, clamps, narrows)
	}
}

// FuzzDegreePolicy drives an AdaptiveFDP with an arbitrary feedback
// sequence and checks the controller's safety envelope: Allow stays in
// [1, Cap] after every event, and the stats counters never go
// inconsistent.
func FuzzDegreePolicy(f *testing.F) {
	for _, s := range degreeSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, events []byte) {
		p := NewAdaptiveFDP(fuzzCap(events))
		for _, ev := range events {
			feedEvent(p, ev)
			if a := p.Allow(); a < 1 || a > p.Cap() {
				t.Fatalf("Allow = %d outside [1, %d] after event %d", a, p.Cap(), ev%4)
			}
		}
		s := p.Stats()
		if s.Timely+s.Late+s.Wasted != uint64(len(events))-s.Backpressure {
			t.Fatalf("lifetime totals %d+%d+%d != events %d - backpressure %d",
				s.Timely, s.Late, s.Wasted, len(events), s.Backpressure)
		}
		if s.Degree != p.Allow() {
			t.Fatalf("Stats.Degree = %d, Allow = %d", s.Degree, p.Allow())
		}
	})
}
