package xfs

import (
	"testing"

	"repro/internal/core"
	"repro/internal/netmodel"
	"repro/internal/sim"
)

func TestPartialLocalHitFetchesOnlyMisses(t *testing.T) {
	e, fs := newFS(core.SpecNP, 32, 100)
	fs.Read(0, span(0, 0, 2), func(sim.Time) {})
	e.Run()
	before := fs.Coll.DiskReads()
	fs.Read(0, span(0, 0, 4), func(sim.Time) {})
	e.Run()
	if got := fs.Coll.DiskReads() - before; got != 2 {
		t.Errorf("partial local hit fetched %d blocks, want 2", got)
	}
}

func TestManagerRedirectCountsNetworkMessages(t *testing.T) {
	e, fs := newFS(core.SpecNP, 32, 100)
	fs.Read(0, span(0, 0, 1), func(sim.Time) {})
	e.Run()
	// Remote hit path: client 3 -> manager -> holder 0 -> client 3, so
	// the read takes a control message and a block message, no more.
	ctrl := fs.Net.RemoteCost(netmodel.ControlMessageSize)
	if fs.HomeNode(0) == 3 {
		ctrl = fs.Net.LocalCost(netmodel.ControlMessageSize)
	}
	start := e.Now()
	var end sim.Time
	fs.Read(3, span(0, 0, 1), func(at sim.Time) { end = at })
	e.Run()
	if lat, want := end.Sub(start), ctrl+fs.Net.RemoteCost(fs.Cfg.BlockSize); lat != want {
		t.Errorf("remote hit took %v, want %v: one control message to the manager and one block from the holder", lat, want)
	}
}

func TestLocalWriteFollowedByLocalRead(t *testing.T) {
	e, fs := newFS(core.SpecNP, 32, 100)
	fs.Write(2, span(0, 5, 2), func(sim.Time) {})
	e.Run()
	reads := fs.Coll.DiskReads()
	start := e.Now()
	var end sim.Time
	fs.Read(2, span(0, 5, 2), func(at sim.Time) { end = at })
	e.Run()
	if fs.Coll.DiskReads() != reads {
		t.Error("read of locally written blocks went to disk")
	}
	if end.Sub(start) > sim.Milliseconds(2) {
		t.Errorf("local read took %v, want sub-millisecond", end.Sub(start))
	}
}

func TestNoForwardingConfigDropsSinglets(t *testing.T) {
	e := sim.NewEngine(1)
	fs := New(e, Config{
		Machine:            smallMachine(),
		CacheBlocksPerNode: 1,
		Algorithm:          core.SpecNP,
		Recirculations:     -1, // plain local LRU
	}, oneFileTrace(100))
	fs.Coll.StartMeasurement()
	fs.Read(0, span(0, 0, 1), func(sim.Time) {})
	e.Run()
	fs.Read(0, span(0, 1, 1), func(sim.Time) {})
	e.Run()
	if fs.Cch.Stats().Forwards != 0 {
		t.Error("forwarding happened despite Recirculations=-1")
	}
}

func TestSatisfiedIsLocalNotGlobal(t *testing.T) {
	// A block cached on another node is NOT "already prefetched" from
	// this node's point of view: the per-node driver restarts its
	// chain, which is exactly the xFS duplicated-work behaviour.
	e, fs := newFS(core.SpecLnAgrOBA, 64, 50)
	fs.Read(0, span(0, 0, 1), func(sim.Time) {})
	e.Run()
	// Node 1 reads block 0 (remote hit): unsatisfied locally, so its
	// own driver starts a chain of its own.
	fs.Read(1, span(0, 0, 1), func(sim.Time) {})
	e.Run()
	if len(fs.drivers) != 2 {
		t.Fatalf("driver count = %d, want 2", len(fs.drivers))
	}
	// Node 1's local pool must have gained its own copies.
	count := 0
	file := oneFileTrace(50).Numbering().File(0) // numbered as fs's trace is
	for b := 0; b < 50; b++ {
		if fs.Cch.ContainsOn(1, file.Slot(span(0, b, 1).Block(0))) {
			count++
		}
	}
	if count < 10 {
		t.Errorf("node 1 holds only %d local copies; its chain did not run", count)
	}
}
