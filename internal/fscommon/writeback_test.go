package fscommon_test

import (
	"testing"

	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/pafs"
	"repro/internal/sim"
	"repro/internal/xfs"
)

func TestWritebackSmearedAcrossPeriod(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := smallMachine()
	cfg.WritebackPeriod = sim.Seconds(10)
	tr := seqTrace(64, 1)
	fs := pafs.New(e, pafs.Config{
		Machine: cfg, CacheBlocksPerNode: 256, Algorithm: core.SpecNP,
	}, tr)
	fs.Coll.StartMeasurement()
	fs.StartWriteback()
	// Dirty 16 blocks at t=0.
	fs.Write(0, blockdev.Span{File: 0, Start: 0, Count: 16}, func(sim.Time) {})
	// At the first tick (t=10s) the flushes must be spread across
	// [10s, 20s), not all issued at the tick.
	e.RunUntil(func() bool { return e.Now() > sim.Time(sim.Seconds(10.5)) })
	early := fs.Coll.DiskWrites()
	if early == 16 {
		t.Error("all flushes issued in a burst at the tick")
	}
	e.RunUntil(func() bool { return e.Now() > sim.Time(sim.Seconds(21)) })
	if got := fs.Coll.DiskWrites(); got != 16 {
		t.Errorf("flushes after a full period = %d, want 16", got)
	}
}

func TestStopBackgroundStopsDaemonAndMeasurement(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := smallMachine()
	tr := seqTrace(16, 1)
	fs := pafs.New(e, pafs.Config{
		Machine: cfg, CacheBlocksPerNode: 64, Algorithm: core.SpecNP,
	}, tr)
	fs.Coll.StartMeasurement()
	fs.StartWriteback()
	if fs.Stopped() {
		t.Error("Stopped before StopBackground")
	}
	fs.Write(0, blockdev.Span{File: 0, Start: 0, Count: 2}, func(sim.Time) {})
	fs.StopBackground()
	if !fs.Stopped() {
		t.Error("Stopped false after StopBackground")
	}
	// A block nobody cached costs a disk read, which a closed window
	// does not count.
	fs.Read(0, blockdev.Span{File: 0, Start: 9, Count: 1}, func(sim.Time) {})
	// Draining must terminate even though dirty blocks remain.
	if e.RunUntil(func() bool { return e.Fired() >= 100000 }); e.Fired() >= 100000 {
		t.Error("event queue did not drain after StopBackground")
	}
	if fs.Coll.DiskWrites() != 0 {
		t.Error("stopped daemon still flushed")
	}
	if fs.Coll.DiskReads() != 0 {
		t.Error("collector still measuring after StopBackground")
	}
}

func TestStoppedFSIgnoresPrefetch(t *testing.T) {
	e := sim.NewEngine(1)
	tr := seqTrace(64, 1)
	fs := pafs.New(e, pafs.Config{
		Machine: smallMachine(), CacheBlocksPerNode: 256, Algorithm: core.SpecLnAgrOBA,
	}, tr)
	fs.StartMeasurement()
	fs.StopBackground()
	fs.Read(0, blockdev.Span{File: 0, Start: 0, Count: 1}, func(sim.Time) {})
	e.Run()
	// The demand read happens; the chain must not start: the env
	// accepts its first issue and never reads it.
	if got := fs.Disks.PrefetchBusyFraction(); got != 0 {
		t.Errorf("stopped FS spent %v of its disk time prefetching", got)
	}
	if got := fs.MeasuredFates().Issued; got != 0 {
		t.Errorf("stopped FS booked %d prefetches inside the window", got)
	}
}

func TestStoppedXFSIgnoresPrefetch(t *testing.T) {
	e := sim.NewEngine(1)
	tr := seqTrace(64, 1)
	fs := xfs.New(e, xfs.Config{
		Machine: smallMachine(), CacheBlocksPerNode: 256, Algorithm: core.SpecLnAgrOBA,
	}, tr)
	fs.StartMeasurement()
	fs.StopBackground()
	fs.Read(0, blockdev.Span{File: 0, Start: 0, Count: 1}, func(sim.Time) {})
	e.Run()
	if got := fs.Disks.PrefetchBusyFraction(); got != 0 {
		t.Errorf("stopped xFS spent %v of its disk time prefetching", got)
	}
	if got := fs.MeasuredFates().Issued; got != 0 {
		t.Errorf("stopped xFS booked %d prefetches inside the window", got)
	}
}

func TestCloseStopsChainPAFS(t *testing.T) {
	e := sim.NewEngine(1)
	tr := seqTrace(512, 1)
	fs := pafs.New(e, pafs.Config{
		Machine: smallMachine(), CacheBlocksPerNode: 1024, Algorithm: core.SpecLnAgrOBA,
	}, tr)
	fs.Coll.StartMeasurement()
	fs.Read(0, blockdev.Span{File: 0, Start: 0, Count: 1}, func(sim.Time) {})
	// Let a few prefetches through, then close: the chain must stop
	// well before the end of the 512-block file.
	e.RunUntil(func() bool { return fs.Fates().Issued >= 3 })
	closed := false
	fs.Close(0, 0, func(sim.Time) { closed = true })
	e.Run()
	if !closed {
		t.Fatal("close never completed")
	}
	if got := fs.Fates().Issued; got > 20 {
		t.Errorf("%d prefetches issued after close; chain did not stop", got)
	}
	// A new request resumes prefetching.
	before := fs.Fates().Issued
	fs.Read(0, blockdev.Span{File: 0, Start: 100, Count: 1}, func(sim.Time) {})
	e.RunUntil(func() bool { return fs.Fates().Issued > before+2 })
	if fs.Fates().Issued <= before {
		t.Error("chain did not resume after reopen")
	}
	fs.StopBackground()
	e.Run()
}

func TestCloseStopsOnlyThatNodeXFS(t *testing.T) {
	e := sim.NewEngine(1)
	tr := seqTrace(512, 1)
	fs := xfs.New(e, xfs.Config{
		Machine: smallMachine(), CacheBlocksPerNode: 1024, Algorithm: core.SpecLnAgrOBA,
	}, tr)
	fs.Coll.StartMeasurement()
	fs.Read(0, blockdev.Span{File: 0, Start: 0, Count: 1}, func(sim.Time) {})
	fs.Read(1, blockdev.Span{File: 0, Start: 0, Count: 1}, func(sim.Time) {})
	e.RunUntil(func() bool { return fs.Fates().Issued >= 6 })
	// Node 0 closes; node 1's chain keeps walking.
	fs.Close(0, 0, func(sim.Time) {})
	before := fs.Fates().Issued
	e.RunUntil(func() bool { return fs.Fates().Issued > before+5 })
	if fs.Fates().Issued <= before {
		t.Error("closing one node's file stopped every chain")
	}
	fs.StopBackground()
	e.Run()
}
