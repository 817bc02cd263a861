package pafs

import (
	"testing"

	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/workload"
)

// smallMachine is a PM-flavoured machine shrunk for unit tests.
func smallMachine() machine.Config {
	cfg := machine.PM()
	cfg.Nodes = 4
	cfg.Disks = 2
	return cfg
}

// oneFileTrace declares a single file of n blocks with no steps (the
// tests drive the FS directly).
func oneFileTrace(n int) *workload.Trace {
	return &workload.Trace{
		Name:       "test",
		FileBlocks: map[blockdev.FileID]blockdev.BlockNo{0: blockdev.BlockNo(n)},
		Procs:      []workload.Process{{Node: 0}},
	}
}

func newFS(alg core.AlgSpec, cacheBlocks int, fileBlocks int) (*sim.Engine, *FS) {
	e := sim.NewEngine(1)
	fs := New(e, Config{
		Machine:            smallMachine(),
		CacheBlocksPerNode: cacheBlocks,
		Algorithm:          alg,
	}, oneFileTrace(fileBlocks))
	fs.Coll.StartMeasurement()
	return e, fs
}

// slot returns block b of file 0's slot in the numbering of
// oneFileTrace, the trace newFS runs: the file's blocks take slots
// from 0 whatever its length.
func slot(b int) int32 {
	return oneFileTrace(b + 1).Numbering().File(0).Slot(blockdev.BlockID{File: 0, Block: blockdev.BlockNo(b)})
}

func span(f, start, count int) blockdev.Span {
	return blockdev.Span{File: blockdev.FileID(f), Start: blockdev.BlockNo(start), Count: int32(count)}
}

func TestReadMissGoesToDisk(t *testing.T) {
	e, fs := newFS(core.SpecNP, 64, 100)
	var at sim.Time
	fs.Read(0, span(0, 0, 1), func(tm sim.Time) { at = tm })
	e.Run()
	if fs.Coll.DiskReads() != 1 {
		t.Fatalf("disk reads = %d, want 1", fs.Coll.DiskReads())
	}
	// A miss must cost at least the disk service time.
	if at < sim.Time(0).Add(sim.Milliseconds(10.5)) {
		t.Errorf("miss completed at %v, faster than a disk seek", at)
	}
	if !fs.Cch.Contains(slot(0)) {
		t.Error("fetched block not cached")
	}
}

func TestReadHitAvoidsDisk(t *testing.T) {
	e, fs := newFS(core.SpecNP, 64, 100)
	fs.Read(0, span(0, 0, 1), func(sim.Time) {})
	e.Run()
	reads := fs.Coll.DiskReads()
	var hitAt, start sim.Time
	start = e.Now()
	fs.Read(1, span(0, 0, 1), func(tm sim.Time) { hitAt = tm })
	e.Run()
	if fs.Coll.DiskReads() != reads {
		t.Error("hit went to disk")
	}
	lat := hitAt.Sub(start)
	if lat >= sim.Milliseconds(10) {
		t.Errorf("hit latency %v, should be well under a disk access", lat)
	}
	if lat <= 0 {
		t.Error("hit has no cost at all")
	}
}

func TestConcurrentMissesCoalesce(t *testing.T) {
	e, fs := newFS(core.SpecNP, 64, 100)
	done := 0
	fs.Read(0, span(0, 5, 1), func(sim.Time) { done++ })
	fs.Read(1, span(0, 5, 1), func(sim.Time) { done++ })
	e.Run()
	if done != 2 {
		t.Fatalf("completed %d reads, want 2", done)
	}
	if got := fs.Coll.DiskReads(); got != 1 {
		t.Errorf("disk reads = %d, want 1 (coalesced)", got)
	}
}

func TestWriteDirtiesCacheWithoutDiskRead(t *testing.T) {
	e, fs := newFS(core.SpecNP, 64, 100)
	fs.Write(0, span(0, 0, 4), func(sim.Time) {})
	e.Run()
	if fs.Coll.DiskReads() != 0 {
		t.Error("full-block write triggered a disk read")
	}
	if len(fs.Cch.DirtySlots()) != 4 {
		t.Errorf("dirty blocks = %d, want 4", len(fs.Cch.DirtySlots()))
	}
}

func TestWritebackDaemonFlushesDirtyBlocks(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := smallMachine()
	cfg.WritebackPeriod = sim.Seconds(1)
	fs := New(e, Config{Machine: cfg, CacheBlocksPerNode: 64, Algorithm: core.SpecNP}, oneFileTrace(100))
	fs.Coll.StartMeasurement()
	fs.StartWriteback()
	fs.Write(0, span(0, 0, 2), func(sim.Time) {})
	// Run past one write-back period; the daemon reschedules forever,
	// so bound the event count instead of draining.
	e.RunUntil(func() bool { return e.Now() > sim.Time(sim.Seconds(1.5)) })
	if got := fs.Coll.DiskWrites(); got != 2 {
		t.Errorf("disk writes = %d, want 2 (periodic flush)", got)
	}
	if len(fs.Cch.DirtySlots()) != 0 {
		t.Error("blocks still dirty after flush")
	}
}

func TestRewriteAcrossPeriodsWritesTwice(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := smallMachine()
	cfg.WritebackPeriod = sim.Seconds(1)
	fs := New(e, Config{Machine: cfg, CacheBlocksPerNode: 64, Algorithm: core.SpecNP}, oneFileTrace(100))
	fs.Coll.StartMeasurement()
	fs.StartWriteback()
	fs.Write(0, span(0, 0, 1), func(sim.Time) {})
	e.At(sim.Time(sim.Seconds(1.2)), e.Bind(func(*sim.Engine) {
		fs.Write(0, span(0, 0, 1), func(sim.Time) {})
	}))
	e.RunUntil(func() bool { return e.Now() > sim.Time(sim.Seconds(2.5)) })
	if got := fs.Coll.WritesPerBlock(); got != 2 {
		t.Errorf("writes per block = %v, want 2 (the Table 2 mechanism)", got)
	}
}

func TestLnAgrOBAPrefetchesSequentially(t *testing.T) {
	e, fs := newFS(core.SpecLnAgrOBA, 64, 20)
	fs.Read(0, span(0, 0, 1), func(sim.Time) {})
	e.Run()
	// The chain must have walked to the end of the 20-block file.
	if got := fs.Fates().Issued; got != 19 {
		t.Errorf("prefetch reads = %d, want 19", got)
	}
	for b := 0; b < 20; b++ {
		if !fs.Cch.Contains(slot(b)) {
			t.Errorf("block %d not cached after aggressive walk", b)
		}
	}
}

func TestLinearInvariantOneOutstandingPerFile(t *testing.T) {
	// With a single file and Ln_Agr, at no instant may two prefetch
	// operations be queued or in service across all disks.
	e, fs := newFS(core.SpecLnAgrOBA, 64, 50)
	fs.Read(0, span(0, 0, 1), func(sim.Time) {})
	violated := false
	var watch sim.HandlerID
	watch = e.Bind(func(e *sim.Engine) {
		inFlight := 0
		for _, drv := range fs.drivers {
			if drv == nil {
				continue
			}
			if drv.Outstanding() > 1 {
				violated = true
			}
			inFlight += drv.Outstanding()
		}
		if inFlight > 1 {
			violated = true
		}
		e.After(sim.Milliseconds(1), watch) // RunUntil's bound ends the watch
	})
	e.After(0, watch)
	e.RunUntil(func() bool { return e.Now() > sim.Time(sim.Seconds(5)) })
	if violated {
		t.Error("linear invariant violated: >1 outstanding prefetch for one file")
	}
}

func TestPrefetchImprovesSequentialReadLatency(t *testing.T) {
	run := func(alg core.AlgSpec) sim.Duration {
		e, fs := newFS(alg, 256, 400)
		var issue sim.Time
		var total sim.Duration
		var reads int
		var next func(b int)
		next = func(b int) {
			if b >= 300 {
				return
			}
			issue = e.Now()
			fs.Read(0, span(0, b, 1), func(at sim.Time) {
				total += at.Sub(issue)
				reads++
				// Think a little, then read the next block.
				e.After(sim.Milliseconds(2), e.Bind(func(*sim.Engine) { next(b + 1) }))
			})
		}
		next(0)
		e.Run()
		return total / sim.Duration(reads)
	}
	np := run(core.SpecNP)
	agr := run(core.SpecLnAgrOBA)
	if agr >= np {
		t.Errorf("Ln_Agr_OBA avg read %v not better than NP %v on sequential scan", agr, np)
	}
	if np < sim.Milliseconds(5) {
		t.Errorf("NP sequential scan %v suspiciously fast (every block should miss)", np)
	}
}

func TestMispredictRestartsFromNewPosition(t *testing.T) {
	e, fs := newFS(core.SpecLnAgrOBA, 32, 1000)
	fs.Read(0, span(0, 0, 1), func(sim.Time) {})
	// Let the chain prefetch a handful of blocks.
	e.RunUntil(func() bool { return fs.Fates().Issued >= 5 })
	// Jump far away: a misprediction.
	fs.Read(0, span(0, 500, 1), func(sim.Time) {})
	e.RunUntil(func() bool { return fs.Fates().Issued >= 12 })
	if !fs.Cch.Contains(slot(501)) {
		t.Error("chain did not restart at the new position")
	}
}

func TestServerForIsStable(t *testing.T) {
	_, fs := newFS(core.SpecNP, 16, 10)
	a := fs.HomeNode(3)
	if fs.HomeNode(3) != a {
		t.Error("server assignment unstable")
	}
	if int(a) < 0 || int(a) >= fs.Cfg.Nodes {
		t.Errorf("server %d out of range", a)
	}
}

func TestNameAndStart(t *testing.T) {
	e, fs := newFS(core.SpecNP, 16, 10)
	fs.StartWriteback()
	// The daemon reschedules forever: a bounded run stops at its limit
	// with the daemon's next tick still queued.
	e.RunUntil(func() bool { return e.Fired() >= 4 })
	if e.Fired() != 4 {
		t.Errorf("fired %d events, want the bound of 4: the daemon stopped rescheduling", e.Fired())
	}
}

func TestNPHasNoDrivers(t *testing.T) {
	e, fs := newFS(core.SpecNP, 16, 10)
	fs.Read(0, span(0, 0, 1), func(sim.Time) {})
	e.Run()
	for _, drv := range fs.drivers {
		if drv != nil {
			t.Error("NP created prefetch drivers")
		}
	}
	if fs.Fates().Issued != 0 {
		t.Error("NP issued prefetches")
	}
}

func TestFallbackFractionAccounted(t *testing.T) {
	// IS_PPM on a single cold request: all prefetches are fallback.
	e, fs := newFS(core.SpecLnAgrISPPM1, 64, 10)
	fs.Read(0, span(0, 0, 1), func(sim.Time) {})
	e.Run()
	if fs.Fates().Issued == 0 {
		t.Fatal("no prefetches issued")
	}
	if got := fs.Fates().FallbackFraction(); got != 1.0 {
		t.Errorf("fallback fraction = %v, want 1.0 (cold file)", got)
	}
}
