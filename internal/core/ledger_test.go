package core

import (
	"testing"

	"repro/internal/blockdev"
)

// TestLedger drives files' prefetch counts, kept in their windows,
// with the simulator's shapes on unlimited windows (xFS-style overlap
// on a shared file, the peak surviving a drain, a negative count) and
// the runtime's on capped ones (updates past the cap counted, or a
// panic when strict).
func TestLedger(t *testing.T) {
	type delta struct {
		f blockdev.FileID
		d int
	}
	for _, tc := range []struct {
		name       string
		cap        int
		strict     bool
		deltas     []delta
		wantHW     map[blockdev.FileID]int
		violations uint64
		panics     bool // on the last delta
	}{{
		// Two drivers overlap on file 1 (the xFS shared-file case), one
		// driver stays linear on file 2; no cap, so nothing violates.
		name: "high-water",
		deltas: []delta{{1, 1}, {1, 1}, {1, -1}, {2, 1}, {2, -1}, {2, 1}, {2, -1},
			{1, -1}}, // the peak survives the count draining to zero
		wantHW: map[blockdev.FileID]int{1: 2, 2: 1},
	}, {
		// A file seen only through a zero delta never had a prefetch in
		// flight: its high-water is 0.
		name:   "zero-delta",
		deltas: []delta{{3, 0}, {4, 1}, {4, -1}},
		wantHW: map[blockdev.FileID]int{4: 1},
	}, {
		name:   "negative-panics",
		deltas: []delta{{1, -1}},
		panics: true,
	}, {
		name:       "counts-violations",
		cap:        1,
		deltas:     []delta{{2, 1}, {2, 1}, {2, -2}},
		wantHW:     map[blockdev.FileID]int{2: 2},
		violations: 1,
	}, {
		name:   "strict-panics",
		cap:    1,
		strict: true,
		deltas: []delta{{1, 1}, {1, 1}},
		panics: true,
	}} {
		t.Run(tc.name, func(t *testing.T) {
			windows := make(map[blockdev.FileID]*DegreePolicy)
			window := func(f blockdev.FileID) *DegreePolicy {
				if windows[f] == nil {
					windows[f] = staticWindow(tc.cap)
					if tc.strict {
						windows[f].SetStrict()
					}
				}
				return windows[f]
			}
			for i, d := range tc.deltas {
				if tc.panics && i == len(tc.deltas)-1 {
					defer func() {
						if recover() == nil {
							t.Error("last delta did not panic")
						}
					}()
				}
				window(d.f).addInFlight(d.d, d.f)
			}
			var violations uint64
			for f, w := range windows {
				if hw := w.HighWater(); hw != tc.wantHW[f] {
					t.Errorf("file %d high-water = %d, want %d", f, hw, tc.wantHW[f])
				}
				violations += w.OverCap()
			}
			if violations != tc.violations {
				t.Errorf("violations = %d, want %d", violations, tc.violations)
			}
		})
	}
}

// TestLedgerFileMarks: two drivers of one file (xFS's per-node case)
// share the file's window; their prefetches sum into one outstanding
// count and one high-water mark, and the second takes the count past
// the window's cap, which a window counts. A count below zero panics,
// and a strict window panics past its cap.
func TestLedgerFileMarks(t *testing.T) {
	w := staticWindow(1)
	envs := []*fakeEnv{newFakeEnv(), newFakeEnv()}
	for _, env := range envs {
		d := NewDriver(DriverConfig{
			Predictor:  NewOBA(),
			Mode:       ModeAggressive,
			Degree:     w,
			File:       7,
			FileBlocks: 16,
			Env:        env,
		})
		d.OnUserRequest(Request{Offset: 0, Size: 1}, 1, false)
	}
	if w.inFlight != 2 {
		t.Errorf("file 7 outstanding = %d with one prefetch from each driver, want 2", w.inFlight)
	}
	for _, env := range envs {
		env.completeAll() // the chain walks to the end of the file
	}
	if w.inFlight != 0 {
		t.Errorf("file 7 outstanding = %d after both chains drained, want 0", w.inFlight)
	}
	if w.HighWater() != 2 || w.OverCap() == 0 {
		t.Errorf("high-water = %d, over cap %d times; want 2 and at least once", w.HighWater(), w.OverCap())
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
	mustPanic("a count below zero", func() { w.addInFlight(-1, 7) })
	strict := staticWindow(1)
	strict.SetStrict()
	strict.addInFlight(1, 3)
	mustPanic("a strict window past its cap", func() { strict.addInFlight(1, 3) })
	if strict.OverCap() != 1 {
		t.Errorf("strict window over cap %d times, want 1", strict.OverCap())
	}
}
