package core

import (
	"testing"

	"repro/internal/blockdev"
)

// TestLedger drives the one ledger with the inputs both of its former
// halves were tested on: the simulator's unlimited ledger (xFS-style
// overlap on a shared file, the peak surviving a drain, a negative
// count) and the runtime's limit-checking one (violations counted, or
// a panic when strict).
func TestLedger(t *testing.T) {
	type delta struct {
		f blockdev.FileID
		d int
	}
	for _, tc := range []struct {
		name       string
		limit      int
		strict     bool
		deltas     []delta
		wantHW     map[blockdev.FileID]int
		violations uint64
		panics     bool // on the last delta
	}{{
		// Two drivers overlap on file 1 (the xFS shared-file case), one
		// driver stays linear on file 2; no limit, so nothing violates.
		name: "high-water",
		deltas: []delta{{1, 1}, {1, 1}, {1, -1}, {2, 1}, {2, -1}, {2, 1}, {2, -1},
			{1, -1}}, // the peak survives the count draining to zero
		wantHW: map[blockdev.FileID]int{1: 2, 2: 1},
	}, {
		// A file seen only through a zero delta never had a prefetch in
		// flight: HighWaters leaves it out.
		name:   "zero-delta",
		deltas: []delta{{3, 0}, {4, 1}, {4, -1}},
		wantHW: map[blockdev.FileID]int{4: 1},
	}, {
		name:   "negative-panics",
		deltas: []delta{{1, -1}},
		panics: true,
	}, {
		name:       "counts-violations",
		limit:      1,
		deltas:     []delta{{2, 1}, {2, 1}, {2, -2}},
		wantHW:     map[blockdev.FileID]int{2: 2},
		violations: 1,
	}, {
		name:   "strict-panics",
		limit:  1,
		strict: true,
		deltas: []delta{{1, 1}, {1, 1}},
		panics: true,
	}} {
		t.Run(tc.name, func(t *testing.T) {
			l := NewLedger(tc.limit, tc.strict)
			for i, d := range tc.deltas {
				if tc.panics && i == len(tc.deltas)-1 {
					defer func() {
						if recover() == nil {
							t.Error("last delta did not panic")
						}
					}()
				}
				l.Marks(d.f).OutstandingChanged(d.d)
			}
			hw := l.HighWaters()
			max := 0
			for f, want := range tc.wantHW {
				if hw[f] != want {
					t.Errorf("file %d high-water = %d, want %d", f, hw[f], want)
				}
				if want > max {
					max = want
				}
				// The copy must be detached from the ledger.
				hw[f] = 99
				if l.HighWaters()[f] != want {
					t.Error("HighWaters returned the internal map")
				}
			}
			for _, d := range tc.deltas {
				if _, ok := tc.wantHW[d.f]; !ok && hw[d.f] != 0 {
					t.Errorf("file %d high-water = %d, want 0", d.f, hw[d.f])
				}
			}
			if len(hw) != len(tc.wantHW) {
				t.Errorf("HighWaters = %v, want %v", hw, tc.wantHW)
			}
			if l.MaxHighWater() != max {
				t.Errorf("max high-water = %d, want %d", l.MaxHighWater(), max)
			}
			if l.Violations() != tc.violations {
				t.Errorf("violations = %d, want %d", l.Violations(), tc.violations)
			}
		})
	}
}

// TestLedgerFileMarks: two drivers of one file (xFS's per-node case)
// each resolve the file's marks when they are made and report through
// them; their prefetches sum into one outstanding count and one
// high-water mark, keyed by the file in HighWaters. The marks keep the
// ledger's rules: a count below zero panics, and a strict ledger
// panics past its limit.
func TestLedgerFileMarks(t *testing.T) {
	l := NewLedger(0, false)
	envs := []*fakeEnv{newFakeEnv(), newFakeEnv()}
	for _, env := range envs {
		d := NewDriver(DriverConfig{
			Predictor:  NewOBA(),
			Mode:       ModeAggressive,
			Degree:     staticWindow(1),
			File:       7,
			FileBlocks: 16,
			Env:        env,
			Observer:   l.Marks(7),
		})
		d.OnUserRequest(Request{Offset: 0, Size: 1}, 1, false)
	}
	if m := l.Marks(7); m.outstanding != 2 {
		t.Errorf("file 7 outstanding = %d with one prefetch from each driver, want 2", m.outstanding)
	}
	for _, env := range envs {
		env.completeAll() // the chain walks to the end of the file
	}
	if m := l.Marks(7); m.outstanding != 0 {
		t.Errorf("file 7 outstanding = %d after both chains drained, want 0", m.outstanding)
	}
	l.Marks(9).OutstandingChanged(1)
	if hw := l.HighWaters(); len(hw) != 2 || hw[7] != 2 || hw[9] != 1 {
		t.Errorf("HighWaters = %v, want map[7:2 9:1]", hw)
	}
	if l.MaxHighWater() != 2 {
		t.Errorf("max high-water = %d, want 2", l.MaxHighWater())
	}
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("a count below zero", func() { l.Marks(7).OutstandingChanged(-1) })
	strict := NewLedger(1, true)
	m := strict.Marks(3)
	m.OutstandingChanged(1)
	mustPanic("a strict ledger past its limit", func() { m.OutstandingChanged(1) })
	if strict.Violations() != 1 {
		t.Errorf("strict ledger violations = %d, want 1", strict.Violations())
	}
}
