package lapcache

import (
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/core"
)

// TestAdaptiveEngineWidensUnderStarvation runs a pause-free sequential
// reader against a slow store under the AdaptiveFDP policy: the
// controller must widen past linear (the ledger's per-file high-water
// exceeds 1) while never passing the hard cap, and the ledger — whose
// limit is the policy cap — must count zero violations.
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
	if cap := e.DegreeCap(); s.MaxFileOutstandingHW > cap {
		t.Errorf("high-water %d exceeds policy cap %d", s.MaxFileOutstandingHW, cap)
	}
	if s.LinearViolations != 0 {
		t.Errorf("ledger counted %d violations of the cap-%d limit", s.LinearViolations, e.DegreeCap())
	}
	agg, adaptive := e.DegreeStats()
	if !adaptive {
		t.Fatal("DegreeStats reports a non-adaptive engine")
	}
	if agg.Widens == 0 {
		t.Errorf("controller never widened (stats %+v)", agg)
	}
	if agg.Degree < 1 || agg.Degree > agg.Cap {
		t.Errorf("aggregate degree %d outside [1, %d]", agg.Degree, agg.Cap)
	}
	if s.DegreeCap != core.DefaultAdaptiveCap || s.MaxDegree != agg.Degree {
		t.Errorf("snapshot degree fields (cap %d, max %d) disagree with stats (%d, %d)",
			s.DegreeCap, s.MaxDegree, core.DefaultAdaptiveCap, agg.Degree)
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
	if _, adaptive := e.DegreeStats(); adaptive {
		t.Error("strict engine reports adaptive degree stats")
	}
	if s.DegreeCap != 0 || s.MaxDegree != 0 || s.DegreeWidens != 0 {
		t.Errorf("strict snapshot leaked degree fields: %+v", s)
	}
}
