// Package pafs simulates the PAFS file system of Cortes et al.: a
// parallel/distributed file system whose cooperative cache is globally
// managed and where each file is handled by a single server. The
// centralized per-file server sees the merged request stream of every
// process using the file, keeps the file's prefetching state, and can
// therefore enforce true *linear* aggressive prefetching: one
// outstanding prefetch per file across the whole machine (§4).
package pafs

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

// Config assembles a PAFS instance.
type Config struct {
	Machine machine.Config
	// CacheBlocksPerNode is the per-node pool size (the x-axis of the
	// paper's figures, converted from megabytes).
	CacheBlocksPerNode int
	// Algorithm selects the prefetching configuration.
	Algorithm core.AlgSpec
}

// FS is one simulated PAFS instance.
type FS struct {
	fscommon.Base
	alg     core.AlgSpec
	drivers map[blockdev.FileID]*core.Driver
}

// New builds a PAFS over the given machine for the given trace.
func New(e *sim.Engine, cfg Config, tr *workload.Trace) *FS {
	fs := &FS{
		Base: *fscommon.NewBase(e, cfg.Machine, cfg.CacheBlocksPerNode,
			cachesim.GlobalLRU{}, tr, cfg.Algorithm),
		alg:     cfg.Algorithm,
		drivers: make(map[blockdev.FileID]*core.Driver),
	}
	return fs
}

// Name identifies the file system.
func (fs *FS) Name() string { return "PAFS" }

// Start launches the write-back daemon.
func (fs *FS) Start() { fs.StartWriteback() }

// pafsEnv adapts the FS for a per-file prefetch driver. PAFS drivers
// see the whole cooperative cache: a block cached anywhere need not be
// prefetched again.
type pafsEnv struct {
	fs     *FS
	server blockdev.NodeID
}

func (e pafsEnv) Cached(b blockdev.BlockID) bool {
	return e.fs.Cch.Contains(b) || e.fs.DemandFetchInFlight(b)
}

func (e pafsEnv) Prefetch(b blockdev.BlockID, fallback bool, cancelled func() bool, done func()) bool {
	return e.fs.Base.Prefetch(e.server, b, fallback, cancelled, done)
}

// driverFor lazily creates the per-file driver; nil when NP.
func (fs *FS) driverFor(f blockdev.FileID) *core.Driver {
	if !fs.alg.Prefetches() {
		return nil
	}
	if d, ok := fs.drivers[f]; ok {
		return d
	}
	d := core.NewDriver(core.DriverConfig{
		Predictor:  fs.alg.NewPredictor(),
		Mode:       fs.alg.Mode,
		Degree:     fs.Degrees.For(f),
		File:       f,
		FileBlocks: fs.FileBlocks(f),
		Env:        pafsEnv{fs: fs, server: fs.HomeNode(f)},
		Observer:   fs.Ledger,
	})
	fs.drivers[f] = d
	return d
}

// Drivers exposes per-file driver statistics (for experiments).
func (fs *FS) Drivers() map[blockdev.FileID]*core.Driver { return fs.drivers }

// Read serves a user read: the client contacts the file's server, the
// server gathers every block — from the cooperative cache or from disk
// — and ships them to the client; then the server's prefetcher reacts
// to the observed request.
func (fs *FS) Read(client blockdev.NodeID, span blockdev.Span, done func(at sim.Time)) {
	server := fs.HomeNode(span.File)
	fs.Net.Send(client, server, netmodel.ControlMessageSize, func(e *sim.Engine, _ sim.Time) {
		fs.serveRead(e, client, server, span, done)
	})
}

func (fs *FS) serveRead(e *sim.Engine, client, server blockdev.NodeID, span blockdev.Span, done func(at sim.Time)) {
	blocks := span.Blocks()
	hits := 0
	for _, b := range blocks {
		if fs.Cch.Contains(b) {
			hits++
		}
	}
	satisfied := hits == len(blocks)
	fs.Coll.ReadBlocks(len(blocks), hits)

	finishOne := fscommon.Gather(len(blocks), done)
	for _, b := range blocks {
		blk := b
		if fs.Cch.Contains(blk) {
			holders := fs.Cch.Holders(blk)
			fs.Cch.Touch(holders[0], blk)
			fs.Net.Send(holders[0], client, fs.Cfg.BlockSize, finishOne)
			continue
		}
		fs.DemandFetch(blk, client, func(eng *sim.Engine, _ sim.Time) {
			// The fetched block may have been placed on any node by
			// the global policy; ship it from there to the client.
			src := client
			if hs := fs.Cch.Holders(blk); len(hs) > 0 {
				src = hs[0]
			}
			fs.Net.Send(src, client, fs.Cfg.BlockSize, finishOne)
		})
	}
	if d := fs.driverFor(span.File); d != nil {
		d.OnUserRequest(core.Request{Offset: span.Start, Size: span.Count}, core.Tick(e.Now()), satisfied)
	}
}

// Close notifies the file's server that the client is done with the
// file; the server stops the file's prefetch chain (a centralized
// decision PAFS can make exactly, §4). The next request on the file
// resumes prefetching with the learned pattern intact.
func (fs *FS) Close(client blockdev.NodeID, file blockdev.FileID, done func(at sim.Time)) {
	server := fs.HomeNode(file)
	fs.Net.Send(client, server, netmodel.ControlMessageSize, func(e *sim.Engine, at sim.Time) {
		if d, ok := fs.drivers[file]; ok {
			d.StopChain()
		}
		done(at)
	})
}

// Write absorbs a user write into the cooperative cache: blocks are
// overwritten (or created) dirty and flushed later by the write-back
// daemon or on eviction. Writes also feed the file's predictor: the
// paper's pattern model covers reads and writes alike (§2.1, §2.2).
func (fs *FS) Write(client blockdev.NodeID, span blockdev.Span, done func(at sim.Time)) {
	server := fs.HomeNode(span.File)
	fs.Net.Send(client, server, netmodel.ControlMessageSize, func(e *sim.Engine, _ sim.Time) {
		fs.serveWrite(e, client, server, span, done)
	})
}

func (fs *FS) serveWrite(e *sim.Engine, client, server blockdev.NodeID, span blockdev.Span, done func(at sim.Time)) {
	blocks := span.Blocks()
	hits := 0
	for _, b := range blocks {
		if fs.Cch.Contains(b) {
			hits++
		}
	}
	satisfied := hits == len(blocks)

	finishOne := fscommon.Gather(len(blocks), done)
	for _, b := range blocks {
		blk := b
		var target blockdev.NodeID
		if hs := fs.Cch.Holders(blk); len(hs) > 0 {
			target = hs[0]
			fs.Cch.Touch(target, blk)
			fs.Cch.MarkDirty(blk)
		} else {
			// Full-block overwrite: no read-modify-write needed.
			placed, victims := fs.Cch.Insert(client, blk, cachesim.InsertOptions{Dirty: true})
			fs.FlushVictims(victims)
			target = placed
		}
		fs.Net.Send(client, target, fs.Cfg.BlockSize, finishOne)
	}
	if d := fs.driverFor(span.File); d != nil {
		d.OnUserRequest(core.Request{Offset: span.Start, Size: span.Count}, core.Tick(e.Now()), satisfied)
	}
}
