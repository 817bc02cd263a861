//go:build !race

package experiment

import (
	"runtime"
	"testing"

	"repro/internal/core"
)

// TestCellAllocsPerEvent bounds what a whole simulated cell allocates,
// per simulator event, set-up and cache fill included: the event path
// itself is gated at zero (sim:TestEventPathAllocs), this catches a
// per-request or per-block allocation creeping back in anywhere under
// RunTrace. The trace is generated outside the measured region. An
// engine with an allocated event and closure per At, a boxed cursor per
// Observe and Predict and a closure per disk and network completion
// read 10.58 and 5.66 allocations per event on these two cells; without
// those, but with a map-keyed cache directory and recycled *Copy
// records, 0.68 and 0.65. With the cache in one slab and every
// per-block table indexed by slot they read 0.44 and 0.33; with the
// predictors' pattern graph in a slab and links keyed by pair, 0.39 and
// 0.33 (0.38 and 0.34 later). With a node's first link inline and a
// dropped prefetch's record handed back, 0.26 and 0.32: each bound
// fails at the counts before. With handlers scheduled by ID, 0.24 and
// 0.31, and with per-file state in tables by file ordinal the same
// (1681 and 1233 mallocs). The counts repeat exactly. The trace is
// fresh, so its numbering is built inside the measured run.
func TestCellAllocsPerEvent(t *testing.T) {
	s := TinyScale()
	for _, g := range []struct {
		cell Cell
		max  float64
	}{
		{Cell{FS: PAFS, Workload: Charisma, Alg: core.SpecLnAgrISPPM3, CacheMB: 4}, 0.30},
		{Cell{FS: XFS, Workload: Sprite, Alg: core.SpecLnAgrOBA, CacheMB: 4}, 0.33},
	} {
		tr, mach, err := s.Trace(g.cell.Workload)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r, err := RunTrace(tr, mach, g.cell, s.WarmFraction)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		perEvent := float64(after.Mallocs-before.Mallocs) / float64(r.EventsFired)
		t.Logf("%s: %d mallocs over %d events = %.2f per event", g.cell, after.Mallocs-before.Mallocs, r.EventsFired, perEvent)
		if perEvent > g.max {
			t.Errorf("%s: %.2f allocations per event, want <= %.2f", g.cell, perEvent, g.max)
		}
	}
}
