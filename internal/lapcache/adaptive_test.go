package lapcache

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/core"
)

// TestAdaptiveEngineWidensUnderStarvation runs a pause-free sequential
// reader against a slow store under the adaptive window: the
// controller must widen past linear (a file's high-water exceeds 1)
// while never passing the hard cap, so no file's count ever goes past
// its window's cap: zero violations.
func TestAdaptiveEngineWidensUnderStarvation(t *testing.T) {
	const (
		f      = blockdev.FileID(7)
		blocks = 512
	)
	e := newTestEngine(t, Config{
		Alg:         core.SpecAdAgrISPPM1,
		CacheBlocks: 2048,
		Workers:     16,
		QueueLen:    256,
		Store:       NewMemStore(512, 200*time.Microsecond),
		FileBlocks:  map[blockdev.FileID]blockdev.BlockNo{f: blocks},
	})
	for b := blockdev.BlockNo(0); b < blocks; b++ {
		if _, _, err := readCopy(e, f, b, 1); err != nil {
			t.Fatalf("Read(%d): %v", b, err)
		}
	}

	s := e.Snapshot()
	if s.MaxFileOutstandingHW <= 1 {
		t.Errorf("high-water = %d, want > 1: starved sequential stream should widen", s.MaxFileOutstandingHW)
	}
	if cap := core.SpecAdAgrISPPM1.MaxOutstanding; s.MaxFileOutstandingHW > cap {
		t.Errorf("high-water %d exceeds policy cap %d", s.MaxFileOutstandingHW, cap)
	}
	if s.LinearViolations != 0 {
		t.Errorf("windows counted %d violations of the cap-%d limit", s.LinearViolations, core.SpecAdAgrISPPM1.MaxOutstanding)
	}
	if s.DegreeWidens == 0 {
		t.Errorf("controller never widened (window now %d)", s.MaxDegree)
	}
	if s.DegreeCap != core.DefaultAdaptiveCap {
		t.Errorf("snapshot degree cap %d, want %d", s.DegreeCap, core.DefaultAdaptiveCap)
	}
	if s.MaxDegree < 1 || s.MaxDegree > s.DegreeCap {
		t.Errorf("widest window %d outside [1, %d]", s.MaxDegree, s.DegreeCap)
	}
}

// TestAdaptiveEngineFreshSnapshotReportsCap: an adaptive engine that
// has touched no file yet still reports its spec's cap, and every
// window starts linear, so `lapget -stats` shows degree_cap from the
// first request on.
func TestAdaptiveEngineFreshSnapshotReportsCap(t *testing.T) {
	s := newTestEngine(t, Config{Alg: core.SpecAdAgrISPPM1}).Snapshot()
	if s.DegreeCap != core.DefaultAdaptiveCap || s.MaxDegree != 1 {
		t.Errorf("fresh adaptive snapshot: cap %d, widest window %d; want %d, 1",
			s.DegreeCap, s.MaxDegree, core.DefaultAdaptiveCap)
	}
	js, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf(`"degree_cap":%d`, core.DefaultAdaptiveCap); !strings.Contains(string(js), want) {
		t.Errorf("snapshot JSON lacks %s: %s", want, js)
	}
}

// TestAdaptiveEngineStrictStaysLinear pins the same workload to the
// strict spec: the refactor must leave the paper baseline bit-exact —
// high-water exactly 1, no violations, and no adaptive stats surface.
func TestAdaptiveEngineStrictStaysLinear(t *testing.T) {
	const (
		f      = blockdev.FileID(8)
		blocks = 256
	)
	e := newTestEngine(t, Config{
		Alg:          core.SpecLnAgrISPPM1,
		CacheBlocks:  2048,
		Workers:      16,
		QueueLen:     256,
		Store:        NewMemStore(512, 50*time.Microsecond),
		FileBlocks:   map[blockdev.FileID]blockdev.BlockNo{f: blocks},
		StrictLinear: true, // any breach panics, not just counts
	})
	for b := blockdev.BlockNo(0); b < blocks; b++ {
		if _, _, err := readCopy(e, f, b, 1); err != nil {
			t.Fatalf("Read(%d): %v", b, err)
		}
	}
	s := e.Snapshot()
	if s.MaxFileOutstandingHW != 1 {
		t.Errorf("high-water = %d, want exactly 1 under strict linear", s.MaxFileOutstandingHW)
	}
	if s.LinearViolations != 0 {
		t.Errorf("linear violations = %d, want 0", s.LinearViolations)
	}
	if s.DegreeCap != 0 || s.MaxDegree != 0 || s.DegreeWidens != 0 {
		t.Errorf("strict snapshot leaked degree fields: %+v", s)
	}
}

// TestAdaptiveEngineClampsInSmallCache is the other half of the
// trade-off: the same pause-free sequential reader, but the cache holds
// fewer blocks than the controller's widest window. A widened chain
// evicts its own unread prefetches, the waste feedback drives accuracy
// under the clamp threshold, and the window falls back to linear — so
// adaptive must clamp at least once and waste more than strict linear,
// whose single outstanding block always fits (the paper's argument for
// the linear throttle on small caches). Counters only: both sides stay
// inside their caps, strict never breaches its limit of one.
func TestAdaptiveEngineClampsInSmallCache(t *testing.T) {
	const (
		f           = blockdev.FileID(9)
		blocks      = 512
		cacheBlocks = core.DefaultAdaptiveCap / 2 // half the widest window
	)
	run := func(alg core.AlgSpec) Snapshot {
		e := newTestEngine(t, Config{
			Alg:         alg,
			CacheBlocks: cacheBlocks,
			Workers:     16,
			QueueLen:    256,
			Store:       NewMemStore(512, 200*time.Microsecond),
			FileBlocks:  map[blockdev.FileID]blockdev.BlockNo{f: blocks},
		})
		for b := blockdev.BlockNo(0); b < blocks; b++ {
			if _, _, err := readCopy(e, f, b, 1); err != nil {
				t.Fatalf("%s: Read(%d): %v", alg.Name(), b, err)
			}
		}
		s := e.Snapshot()
		if cap := alg.MaxOutstanding; s.MaxFileOutstandingHW > cap {
			t.Errorf("%s: high-water %d exceeds degree cap %d", alg.Name(), s.MaxFileOutstandingHW, cap)
		}
		return s
	}
	strict := run(core.SpecLnAgrISPPM1)
	adaptive := run(core.SpecAdAgrISPPM1)

	if strict.LinearViolations != 0 {
		t.Errorf("strict linear counted %d violations", strict.LinearViolations)
	}
	if adaptive.DegreeClamps == 0 {
		t.Errorf("controller never clamped back to linear in a %d-block cache (%d widens, window now %d)",
			cacheBlocks, adaptive.DegreeWidens, adaptive.MaxDegree)
	}
	if adaptive.PrefetchWasted <= strict.PrefetchWasted {
		t.Errorf("adaptive wasted %d prefetches, strict linear %d: widening past the cache should cost more",
			adaptive.PrefetchWasted, strict.PrefetchWasted)
	}
}
