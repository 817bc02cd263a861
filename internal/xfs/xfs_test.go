package xfs

import (
	"testing"

	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/workload"
)

func smallMachine() machine.Config {
	cfg := machine.NOW()
	cfg.Nodes = 4
	cfg.Disks = 2
	return cfg
}

func oneFileTrace(n int) *workload.Trace {
	return &workload.Trace{
		Name:       "test",
		FileBlocks: map[blockdev.FileID]blockdev.BlockNo{0: blockdev.BlockNo(n)},
		Procs:      []workload.Process{{Node: 0}},
	}
}

func newFS(alg core.AlgSpec, cacheBlocks, fileBlocks int) (*sim.Engine, *FS) {
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

func TestMissFetchesToLocalPool(t *testing.T) {
	e, fs := newFS(core.SpecNP, 32, 100)
	fs.Read(2, span(0, 0, 1), func(sim.Time) {})
	e.Run()
	if !fs.Cch.ContainsOn(2, slot(0)) {
		t.Error("miss did not create a local copy on the client")
	}
	if fs.Coll.DiskReads() != 1 {
		t.Errorf("disk reads = %d, want 1", fs.Coll.DiskReads())
	}
}

func TestRemoteHitCopiesWithoutDisk(t *testing.T) {
	e, fs := newFS(core.SpecNP, 32, 100)
	fs.Read(2, span(0, 0, 1), func(sim.Time) {})
	e.Run()
	reads := fs.Coll.DiskReads()
	fs.Read(3, span(0, 0, 1), func(sim.Time) {})
	e.Run()
	if fs.Coll.DiskReads() != reads {
		t.Error("remote hit went to disk")
	}
	blk := slot(0)
	if !fs.Cch.ContainsOn(3, blk) {
		t.Error("remote hit did not create a local duplicate")
	}
	if !fs.Cch.ContainsOn(2, blk) {
		t.Error("remote hit destroyed the source copy")
	}
}

func TestLatencyOrderingLocalRemoteDisk(t *testing.T) {
	e, fs := newFS(core.SpecNP, 32, 100)
	measure := func(client int, s blockdev.Span) sim.Duration {
		start := e.Now()
		var end sim.Time
		fs.Read(blockdev.NodeID(client), s, func(at sim.Time) { end = at })
		e.Run()
		return end.Sub(start)
	}
	disk := measure(2, span(0, 0, 1))   // miss: disk
	remote := measure(3, span(0, 0, 1)) // remote hit: network copy
	local := measure(3, span(0, 0, 1))  // local hit
	if !(local < remote && remote < disk) {
		t.Errorf("latency ordering wrong: local=%v remote=%v disk=%v", local, remote, disk)
	}
}

func TestPerNodeDriversDuplicatePrefetch(t *testing.T) {
	// Two nodes reading the same file each get their own driver: the
	// paper's per-node linearity. Aggregate prefetch volume grows.
	e, fs := newFS(core.SpecLnAgrOBA, 64, 30)
	fs.Read(0, span(0, 0, 1), func(sim.Time) {})
	fs.Read(1, span(0, 0, 1), func(sim.Time) {})
	e.Run()
	if len(fs.drivers) != 2 {
		t.Errorf("driver count = %d, want 2 (per node)", len(fs.drivers))
	}
	// Both nodes should end up with their own copies of the walked
	// blocks (via disk or peer copy).
	blk := slot(10)
	on0, on1 := fs.Cch.ContainsOn(0, blk), fs.Cch.ContainsOn(1, blk)
	if !on0 || !on1 {
		t.Errorf("block 10 local copies: node0=%v node1=%v, want both", on0, on1)
	}
}

func TestPrefetchDuplicatesDiskWork(t *testing.T) {
	// xFS prefetch decisions are local and go straight to disk, so a
	// second node walking a file already cached by the first re-reads
	// it from disk — the paper's doubled prefetch volume (§5.2).
	e, fs := newFS(core.SpecLnAgrOBA, 64, 20)
	fs.Read(0, span(0, 0, 1), func(sim.Time) {})
	e.Run()
	diskReads := fs.Coll.DiskReads()
	fs.Read(1, span(0, 0, 1), func(sim.Time) {})
	e.Run()
	extra := fs.Coll.DiskReads() - diskReads
	if extra == 0 {
		t.Error("no duplicated prefetch disk reads; xFS linearity should be per node only")
	}
}

func TestWriteInvalidatesRemoteCopies(t *testing.T) {
	e, fs := newFS(core.SpecNP, 32, 100)
	fs.Read(2, span(0, 0, 1), func(sim.Time) {})
	e.Run()
	fs.Write(3, span(0, 0, 1), func(sim.Time) {})
	e.Run()
	blk := slot(0)
	if fs.Cch.ContainsOn(2, blk) {
		t.Error("stale copy survived a write by another node")
	}
	if !fs.Cch.ContainsOn(3, blk) {
		t.Error("writer has no local copy")
	}
	if len(fs.Cch.DirtySlots()) != 1 {
		t.Error("written block not dirty")
	}
}

func TestWriteLatencyIsLocal(t *testing.T) {
	e, fs := newFS(core.SpecNP, 32, 100)
	start := e.Now()
	var end sim.Time
	fs.Write(1, span(0, 5, 1), func(at sim.Time) { end = at })
	e.Run()
	if lat := end.Sub(start); lat > sim.Milliseconds(1) {
		t.Errorf("write latency %v; xFS writes absorb locally", lat)
	}
}

func TestManagerForStable(t *testing.T) {
	_, fs := newFS(core.SpecNP, 16, 10)
	if fs.HomeNode(5) != fs.HomeNode(5) {
		t.Error("manager assignment unstable")
	}
}

func TestDefaultRecirculations(t *testing.T) {
	e := sim.NewEngine(1)
	fs := New(e, Config{
		Machine:            smallMachine(),
		CacheBlocksPerNode: 1,
		Algorithm:          core.SpecNP,
	}, oneFileTrace(100))
	fs.Coll.StartMeasurement()
	// Fill node 0's single buffer, then insert another block; the
	// singlet must be forwarded (N-chance active by default).
	fs.Read(0, span(0, 0, 1), func(sim.Time) {})
	e.Run()
	fs.Read(0, span(0, 1, 1), func(sim.Time) {})
	e.Run()
	if fs.Cch.Stats().Forwards == 0 {
		t.Error("no N-chance forwarding with default config")
	}
}

func TestColdWholeFileScanBenefitsFromPrefetch(t *testing.T) {
	run := func(alg core.AlgSpec) sim.Duration {
		e, fs := newFS(alg, 128, 200)
		var total sim.Duration
		var reads int
		var next func(b int)
		next = func(b int) {
			if b >= 150 {
				return
			}
			issue := e.Now()
			fs.Read(0, span(0, b, 1), func(at sim.Time) {
				total += at.Sub(issue)
				reads++
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
		t.Errorf("Ln_Agr_OBA %v not better than NP %v on xFS sequential scan", agr, np)
	}
}
