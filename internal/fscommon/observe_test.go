package fscommon

import (
	"testing"

	"repro/internal/blockdev"
	"repro/internal/cachesim"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/workload"
)

func TestPrefetchInflightWindow(t *testing.T) {
	num := blockdev.NewNumbering(map[blockdev.FileID]blockdev.BlockNo{1: 8})
	b := &Base{num: num, pfInflight: make([]int32, num.Len())}
	blk := num.File(1).Slot(blockdev.BlockID{File: 1, Block: 7})
	if b.PrefetchInFlight(blk) {
		t.Error("in flight before begin")
	}
	b.PrefetchBegin(blk)
	if !b.PrefetchInFlight(blk) {
		t.Error("not in flight after begin")
	}
	b.PrefetchEnd(blk)
	if b.PrefetchInFlight(blk) {
		t.Error("still in flight after end")
	}
}

// A prefetch's in-flight window must close whichever way the operation
// ends: by completing, or by being dropped from the disk queue when its
// driver calls it stale (the disk never completes a dropped read, so
// the poll itself has to close it). Either way done fires once, and a
// dropped operation's inserts nothing.
func TestDroppedPrefetchClosesWindow(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := machine.PM()
	cfg.Nodes, cfg.Disks = 2, 1
	tr := &workload.Trace{FileBlocks: map[blockdev.FileID]blockdev.BlockNo{3: 8}}
	b := NewBase(e, cfg, 16, cachesim.GlobalLRU{}, tr, core.SpecLnAgrOBA)
	file := tr.Numbering().File(3)
	live, stale := file.Slot(blockdev.BlockID{File: 3, Block: 1}), file.Slot(blockdev.BlockID{File: 3, Block: 2})

	completed, dropped := 0, 0
	b.Prefetch(0, live, func() bool { return false }, func() { completed++ })
	// Queued behind the first on the one disk, and polled when its turn
	// comes.
	b.Prefetch(0, stale, func() bool { return true }, func() { dropped++ })
	if !b.PrefetchInFlight(live) || !b.PrefetchInFlight(stale) {
		t.Fatal("issued prefetches are not in flight")
	}
	e.Run()
	if b.PrefetchInFlight(live) {
		t.Error("completed prefetch left its window open")
	}
	if b.PrefetchInFlight(stale) {
		t.Error("dropped prefetch left its window open")
	}
	if completed != 1 || dropped != 1 || !b.Cch.Contains(live) || b.Cch.Contains(stale) {
		t.Errorf("done fired %d and %d times, cached(live)=%v cached(stale)=%v, want 1 1 true false",
			completed, dropped, b.Cch.Contains(live), b.Cch.Contains(stale))
	}
}

// TestBaseDegreeRoutesPerFile: each file gets its own window, every
// caller asking for one file gets the same one (xFS's per-node drivers
// of a file share it, DESIGN §12), the lifecycle events move only
// their own file's adaptive window, and a static spec's window ignores
// them.
func TestBaseDegreeRoutesPerFile(t *testing.T) {
	base := func(alg core.AlgSpec) *Base {
		cfg := machine.PM()
		cfg.Nodes, cfg.Disks = 2, 1
		tr := &workload.Trace{FileBlocks: map[blockdev.FileID]blockdev.BlockNo{1: 8, 2: 8}}
		return NewBase(sim.NewEngine(1), cfg, 16, cachesim.GlobalLRU{}, tr, alg)
	}
	b := base(core.SpecAdAgrISPPM1)
	degree := func(f blockdev.FileID) *core.DegreePolicy { return b.Degree(b.num.File(f).Ordinal) }
	one, two := degree(1), degree(2)
	if one == two {
		t.Fatal("two files share a window")
	}
	if degree(1) != one {
		t.Fatal("a second driver of file 1 got another window")
	}
	// Starve file 1 only; file 2 must stay linear.
	for i := 0; i < 200; i++ {
		degree(1).OnTimely()
		degree(1).OnLate()
	}
	if one.Allow() <= 1 {
		t.Errorf("file 1 window = %d, want widened", one.Allow())
	}
	if two.Allow() != 1 {
		t.Errorf("file 2 window = %d, want untouched 1", two.Allow())
	}

	// A static K4_ window: all-timely feedback would narrow an adaptive
	// one, all-wasted clamp it to 1; this one stays at 4.
	k4 := core.SpecLnAgrISPPM1
	k4.MaxOutstanding = 4
	w := base(k4).Degree(0)
	for _, feed := range []func(){w.OnTimely, w.OnLate, w.OnWasted} {
		for i := 0; i < 200; i++ {
			feed()
		}
		if w.Allow() != 4 {
			t.Errorf("static K4_ window = %d after feedback, want 4", w.Allow())
		}
	}
}
