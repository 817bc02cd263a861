package pafs

import (
	"testing"

	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/sim"
)

func TestMultiBlockMissFetchesInParallel(t *testing.T) {
	// A 4-block miss stripes over the machine's disks (two in this
	// test rig), so the request completes in about two disk service
	// times, not four serialized ones.
	e, fs := newFS(core.SpecNP, 64, 100)
	start := e.Now()
	var end sim.Time
	fs.Read(0, span(0, 0, 4), func(at sim.Time) { end = at })
	e.Run()
	service := fs.Cfg.DiskReadSeek + sim.TransferTime(fs.Cfg.BlockSize, fs.Cfg.DiskBandwidth)
	lat := end.Sub(start)
	if lat >= 3*service {
		t.Errorf("4-block miss took %v; striping over 2 disks should need ~2 services (%v)", lat, service)
	}
	if lat < 2*service {
		t.Errorf("4-block miss took %v, impossibly fast for 2 disks", lat)
	}
	if fs.Coll.DiskReads() != 4 {
		t.Errorf("disk reads = %d, want 4", fs.Coll.DiskReads())
	}
}

func TestPartialHitFetchesOnlyMisses(t *testing.T) {
	e, fs := newFS(core.SpecNP, 64, 100)
	fs.Read(0, span(0, 0, 2), func(sim.Time) {})
	e.Run()
	before := fs.Coll.DiskReads()
	// Blocks 0,1 cached; 2,3 not: the 4-block request fetches two.
	fs.Read(1, span(0, 0, 4), func(sim.Time) {})
	e.Run()
	if got := fs.Coll.DiskReads() - before; got != 2 {
		t.Errorf("partial hit fetched %d blocks, want 2", got)
	}
}

func TestRemoteHitMovesDataOverNetwork(t *testing.T) {
	e, fs := newFS(core.SpecNP, 64, 100)
	fs.Read(0, span(0, 0, 1), func(sim.Time) {})
	e.Run()
	// Another node reads the same block: at least one remote transfer
	// (holder -> client) must cross the network, and no disk read.
	reads, start := fs.Coll.DiskReads(), e.Now()
	var end sim.Time
	fs.Read(3, span(0, 0, 1), func(at sim.Time) { end = at })
	e.Run()
	if lat, floor := end.Sub(start), fs.Net.RemoteCost(fs.Cfg.BlockSize); lat < floor {
		t.Errorf("remote hit took %v, less than one block across the network (%v)", lat, floor)
	}
	if fs.Coll.DiskReads() != reads {
		t.Error("remote hit went to disk")
	}
}

func TestWriteThenReadHitsCache(t *testing.T) {
	e, fs := newFS(core.SpecNP, 64, 100)
	fs.Write(0, span(0, 10, 2), func(sim.Time) {})
	e.Run()
	reads := fs.Coll.DiskReads()
	var end sim.Time
	start := e.Now()
	fs.Read(0, span(0, 10, 2), func(at sim.Time) { end = at })
	e.Run()
	if fs.Coll.DiskReads() != reads {
		t.Error("read of freshly written blocks went to disk")
	}
	if end.Sub(start) > sim.Milliseconds(5) {
		t.Errorf("cached read took %v", end.Sub(start))
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	// A cache small enough to evict the dirty blocks must write them
	// out exactly once each.
	e, fs := newFS(core.SpecNP, 4, 100) // 4 nodes x 4 = 16 blocks total
	fs.Write(0, span(0, 0, 8), func(sim.Time) {})
	e.Run()
	// Reading 16 fresh blocks evicts the 8 dirty ones.
	fs.Read(0, span(0, 20, 16), func(sim.Time) {})
	e.Run()
	if got := fs.Coll.DiskWrites(); got != 8 {
		t.Errorf("eviction writes = %d, want 8", got)
	}
}

func TestPrefetchedBlockServedToOtherClient(t *testing.T) {
	// The cooperative cache is shared: blocks prefetched because of
	// client 0's stream satisfy client 1's requests too (the paper's
	// small-cache synchronization anecdote relies on this).
	e, fs := newFS(core.SpecLnAgrOBA, 64, 40)
	fs.Read(0, span(0, 0, 1), func(sim.Time) {})
	e.Run() // chain walks the whole file
	demand := fs.Coll.DiskReads()
	fs.Read(1, span(0, 20, 4), func(sim.Time) {})
	e.Run()
	if fs.Coll.DiskReads() != demand {
		t.Error("client 1 missed on blocks client 0's chain prefetched")
	}
}

func TestBlockPPMRunsEndToEnd(t *testing.T) {
	// The related-work baseline must work inside the full system.
	alg := core.AlgSpec{Kind: core.AlgBlockPPM, Order: 1, Mode: core.ModeAggressive, MaxOutstanding: 1}
	// A cache too small for the file, so second-pass blocks are not
	// simply all resident (a resident working set leaves the chain
	// with nothing to fetch).
	e, fs := newFS(alg, 2, 20)
	// Two sequential passes: the second is predictable for block-PPM.
	var pass func(b, pass int)
	pass = func(b, p int) {
		if p >= 2 {
			return
		}
		next := b + 1
		nextPass := p
		if next >= 20 {
			next, nextPass = 0, p+1
		}
		fs.Read(0, span(0, b, 1), func(sim.Time) {
			e.After(sim.Milliseconds(20), e.Bind(func(*sim.Engine) { pass(next, nextPass) }))
		})
	}
	pass(0, 0)
	// The learned graph wraps 19 -> 0, so with an evicting cache the
	// chain churns forever (the runner's close/stop machinery bounds
	// it in real runs); bound this direct drive by event count.
	e.RunUntil(func() bool { return e.Fired() >= 500000 })
	if fs.Coll.PrefetchIssuedCount() == 0 {
		t.Error("block-PPM never prefetched despite a repeated sequence")
	}
}

func TestHoldersAfterGlobalPlacement(t *testing.T) {
	// With node 0 full, a fetch for node 0 lands elsewhere but must
	// still be findable through the directory.
	e, fs := newFS(core.SpecNP, 2, 100) // tiny pools
	for i := 0; i < 12; i++ {
		fs.Read(0, span(0, i, 1), func(sim.Time) {})
		e.Run()
	}
	found := 0
	for i := 0; i < 12; i++ {
		if fs.Cch.Contains(blockdev.BlockID{File: 0, Block: blockdev.BlockNo(i)}) {
			found++
		}
	}
	if found != 8 { // total capacity 4 nodes x 2
		t.Errorf("cache holds %d blocks, want 8 (full capacity)", found)
	}
}
