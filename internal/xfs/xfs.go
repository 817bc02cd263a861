// Package xfs simulates the Berkeley serverless file system (Anderson
// et al.) at the level of detail the paper exercises: every node
// caches locally and makes its own decisions, managers locate blocks
// machine-wide, and replacement follows the N-chance forwarding of
// Dahlin et al. Prefetching is therefore *per node*: each node keeps
// its own predictor per file and limits only its own outstanding
// prefetches, so several nodes may prefetch the same file in parallel
// — the paper's "not really linear" implementation whose extra
// prefetch volume floods small caches (§4, §5.2).
package xfs

import (
	"repro/internal/blockdev"
	"repro/internal/cachesim"
	"repro/internal/core"
	"repro/internal/fscommon"
	"repro/internal/machine"
	"repro/internal/netmodel"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Config assembles an xFS instance.
type Config struct {
	Machine            machine.Config
	CacheBlocksPerNode int
	Algorithm          core.AlgSpec
	// Recirculations is the N of N-chance forwarding: 0 means the
	// default of 2, negative disables forwarding entirely (plain
	// local LRU, the no-cooperation baseline).
	Recirculations int
}

// driverKey identifies a per-node, per-file prefetch driver.
type driverKey struct {
	node blockdev.NodeID
	file blockdev.FileID
}

// FS is one simulated xFS instance.
type FS struct {
	*fscommon.Base
	drivers map[driverKey]*core.Driver
}

// New builds an xFS over the given machine for the given trace.
func New(e *sim.Engine, cfg Config, tr *workload.Trace) *FS {
	recirc := cfg.Recirculations
	if recirc == 0 {
		recirc = 2
	} else if recirc < 0 {
		recirc = 0
	}
	fs := &FS{
		Base: fscommon.NewBase(e, cfg.Machine, cfg.CacheBlocksPerNode,
			cachesim.NChance{Recirculations: recirc}, tr, cfg.Algorithm),
		drivers: make(map[driverKey]*core.Driver),
	}
	fs.Serve(fs)
	return fs
}

// xfsEnv adapts the FS for one node's per-file driver. The locality
// difference from PAFS is deliberate: a node considers only its *own*
// pool, so a block prefetched by a neighbour is prefetched again here
// (a copy, fetched over the network when possible, from disk when
// not).
type xfsEnv struct {
	fs   *FS
	node blockdev.NodeID
}

func (e xfsEnv) Cached(b blockdev.BlockID) bool {
	return e.fs.Cch.ContainsOn(e.node, b)
}

// Evictions is machine-wide: it moves whenever this node loses a copy.
func (e xfsEnv) Evictions() uint64 { return e.fs.Cch.Stats().Removals }

// Prefetch goes straight to disk: the prefetch decision is local and
// bypasses the manager, so a block sitting in a peer's cache is
// fetched again anyway — the duplicated work (and the extra disk
// traffic of Figure 9) that makes xFS's per-node prefetching "not
// really linear" (§4, §5.2).
func (e xfsEnv) Prefetch(b blockdev.BlockID, fallback bool, cancelled func() bool, done func()) bool {
	return e.fs.Base.Prefetch(e.node, b, fallback, cancelled, done)
}

// driverFor lazily creates the per-(node,file) driver; nil when NP.
func (fs *FS) driverFor(node blockdev.NodeID, f blockdev.FileID) *core.Driver {
	if !fs.Alg.Prefetches() {
		return nil
	}
	k := driverKey{node, f}
	if d, ok := fs.drivers[k]; ok {
		return d
	}
	// Every node's driver for f shares the file's one degree policy:
	// the bound applies per driver, so the machine-wide aggregate can
	// still exceed it — the same per-node-vs-global gap that keeps
	// xFS's prefetching "not really linear" in the paper (§4).
	d := fs.NewDriver(f, xfsEnv{fs: fs, node: node})
	fs.drivers[k] = d
	return d
}

// Read serves a user read with xFS's local-first path: local pool,
// then the manager redirects to a remote holder or to disk. The data
// lands in the client's local pool (possibly evicting via N-chance).
func (fs *FS) Read(client blockdev.NodeID, span blockdev.Span, done func(at sim.Time)) {
	r := fs.NewRequest(workload.OpRead, client, span, done)
	localHits := 0
	for i := int32(0); i < span.Count; i++ {
		blk := span.Block(i)
		if cp := fs.Cch.FindOn(client, blk); cp != nil {
			localHits++
			fs.Cch.Use(cp)
			// Local copy: a memory copy into the application buffer.
			fs.Net.Local(fs.Cfg.BlockSize, r.BlockDone)
			continue
		}
		fs.Net.Send(client, fs.HomeNode(blk.File), netmodel.ControlMessageSize, fs.NewMiss(r, blk).Step)
	}
	fs.Coll.ReadBlocks(int(span.Count), localHits)
	// The client's prefetcher for the file reacts to what its own pool
	// held.
	fs.Observe(fs.driverFor(client, span.File), span, localHits)
}

// The stages of a block the client's pool did not have.
const (
	atManager = iota // the client's message is on its way to the manager
	copying          // a caching node is sending its copy to the client
	fetching         // the disk is reading the block
)

// Advance moves a missed block on. At the manager: redirect to a
// caching node, or go to disk. Either way the block becomes a local
// copy at the client.
func (fs *FS) Advance(m *fscommon.Miss, e *sim.Engine) {
	r, blk := m.Req, m.Block
	switch m.Stage {
	case atManager:
		if cp := fs.Cch.Find(blk); cp != nil {
			fs.Cch.Use(cp)
			m.Stage = copying
			fs.Net.Send(cp.Node, r.Client, fs.Cfg.BlockSize, m.Step)
			return
		}
		m.Stage = fetching
		fs.DemandFetch(blk, r.Client, m.Step)
	case copying:
		_, victims := fs.Cch.Insert(r.Client, blk, cachesim.InsertOptions{})
		fs.FlushVictims(victims)
		m.Release()
		e.Fire(r.BlockDone)
	case fetching:
		// Data travels from the disk's host node to the client.
		fs.Net.Send(fs.HostOf(blk), r.Client, fs.Cfg.BlockSize, r.BlockDone)
		m.Release()
	}
}

// Close stops this node's prefetch chain for the file — a purely
// local decision, like everything else in xFS. Other nodes' chains on
// the same file keep running.
func (fs *FS) Close(client blockdev.NodeID, file blockdev.FileID, done func(at sim.Time)) {
	r := fs.NewRequest(workload.OpClose, client, blockdev.Span{File: file}, done)
	fs.Net.Local(netmodel.ControlMessageSize, r.Arrived)
}

// Arrive ends a close's local delay; reads and writes never leave the
// client as a whole, only block by block.
func (fs *FS) Arrive(r *fscommon.Request, e *sim.Engine) {
	if d, ok := fs.drivers[driverKey{r.Client, r.Span.File}]; ok {
		d.StopChain()
	}
	r.Finish(e.Now())
}

// Write absorbs a user write into the client's local pool, creating or
// dirtying local copies; stale remote copies are invalidated, which is
// xFS's write-ownership behaviour reduced to what the simulation
// needs.
func (fs *FS) Write(client blockdev.NodeID, span blockdev.Span, done func(at sim.Time)) {
	r := fs.NewRequest(workload.OpWrite, client, span, done)
	// Counted before any block is placed: placing one can evict another
	// block of the same span.
	localHits := 0
	for i := int32(0); i < span.Count; i++ {
		if fs.Cch.ContainsOn(client, span.Block(i)) {
			localHits++
		}
	}
	for i := int32(0); i < span.Count; i++ {
		blk := span.Block(i)
		if !fs.Cch.ContainsOn(client, blk) && fs.Cch.Contains(blk) {
			// Invalidate remote copies; ownership moves here.
			fs.Cch.Drop(blk)
		}
		_, victims := fs.Cch.Insert(client, blk, cachesim.InsertOptions{Dirty: true})
		fs.FlushVictims(victims)
		fs.Net.Local(fs.Cfg.BlockSize, r.BlockDone)
	}
	fs.Observe(fs.driverFor(client, span.File), span, localHits)
}
