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
	*fscommon.Base
	// drivers holds each file's driver by ordinal, nil until the file
	// is first served.
	drivers []*core.Driver
}

// New builds a PAFS over the given machine for the given trace.
func New(e *sim.Engine, cfg Config, tr *workload.Trace) *FS {
	fs := &FS{
		Base: fscommon.NewBase(e, cfg.Machine, cfg.CacheBlocksPerNode,
			cachesim.GlobalLRU{}, tr, cfg.Algorithm),
		drivers: make([]*core.Driver, tr.Numbering().Files()),
	}
	fs.Serve(fs)
	return fs
}

// pafsEnv adapts the FS for a per-file prefetch driver. PAFS drivers
// see the whole cooperative cache: a block cached anywhere need not be
// prefetched again.
type pafsEnv struct {
	fs     *FS
	server blockdev.NodeID
	file   blockdev.FileSlots
}

func (e pafsEnv) Cached(b blockdev.BlockID) bool {
	slot := e.file.Slot(b)
	return e.fs.Cch.Contains(slot) || e.fs.DemandFetchInFlight(slot)
}

// Evictions: a fetch in flight always lands, so only a removal counts.
func (e pafsEnv) Evictions() uint64 { return e.fs.Cch.Stats().Removals }

func (e pafsEnv) Prefetch(b blockdev.BlockID, _ bool, cancelled func() bool, done func()) bool {
	return e.fs.Base.Prefetch(e.server, e.file.Slot(b), cancelled, done)
}

// driverFor lazily creates the per-file driver; nil when NP.
func (fs *FS) driverFor(f blockdev.FileSlots) *core.Driver {
	if !fs.Alg.Prefetches() {
		return nil
	}
	d := fs.drivers[f.Ordinal]
	if d == nil {
		d = fs.NewDriver(f, pafsEnv{fs: fs, server: fs.HomeNode(f.ID), file: f})
		fs.drivers[f.Ordinal] = d
	}
	return d
}

// Read serves a user read: the client contacts the file's server, the
// server gathers every block — from the cooperative cache or from disk
// — and ships them to the client; then the server's prefetcher reacts
// to the observed request.
func (fs *FS) Read(client blockdev.NodeID, span blockdev.Span, done func(at sim.Time)) {
	fs.toServer(fs.NewRequest(workload.OpRead, client, span, done))
}

// Write absorbs a user write into the cooperative cache: blocks are
// overwritten (or created) dirty and flushed later by the write-back
// daemon or on eviction. Writes also feed the file's predictor: the
// paper's pattern model covers reads and writes alike (§2.1, §2.2).
func (fs *FS) Write(client blockdev.NodeID, span blockdev.Span, done func(at sim.Time)) {
	fs.toServer(fs.NewRequest(workload.OpWrite, client, span, done))
}

// Close notifies the file's server that the client is done with the
// file; the server stops the file's prefetch chain (a centralized
// decision PAFS can make exactly, §4). The next request on the file
// resumes prefetching with the learned pattern intact.
func (fs *FS) Close(client blockdev.NodeID, file blockdev.FileID, done func(at sim.Time)) {
	fs.toServer(fs.NewRequest(workload.OpClose, client, blockdev.Span{File: file}, done))
}

// toServer sends the request's control message to the file's server,
// where Arrive takes it up.
func (fs *FS) toServer(r *fscommon.Request) {
	fs.Net.Send(r.Client, fs.HomeNode(r.Span.File), netmodel.ControlMessageSize, r.Arrived)
}

// Arrive runs at the file's server when a client's message gets there.
func (fs *FS) Arrive(r *fscommon.Request, e *sim.Engine) {
	switch r.Kind {
	case workload.OpRead:
		fs.serveRead(r)
	case workload.OpWrite:
		fs.serveWrite(r)
	case workload.OpClose:
		if d := fs.drivers[r.File.Ordinal]; d != nil {
			d.StopChain()
		}
		r.Finish(e.Now())
	}
}

func (fs *FS) serveRead(r *fscommon.Request) {
	hits := 0
	for i := int32(0); i < r.Span.Count; i++ {
		slot := r.Slot(i)
		if cp := fs.Cch.Find(slot); cp != nil {
			hits++
			fs.Cch.Use(cp)
			fs.Net.Send(cp.Node, r.Client, fs.Cfg.BlockSize, r.BlockDone)
			continue
		}
		fs.DemandFetch(slot, r.Client, fs.NewMiss(r, slot).Step)
	}
	fs.Coll.ReadBlocks(int(r.Span.Count), hits)
	// The server's prefetcher reacts to the request it has just served.
	fs.Observe(fs.driverFor(r.File), r.Span, hits)
}

// Advance runs when a missed block's demand fetch completes. The block
// may have been placed on any node by the global policy; ship it from
// there to the client.
func (fs *FS) Advance(m *fscommon.Miss, _ *sim.Engine) {
	r := m.Req
	src := r.Client
	if cp := fs.Cch.Find(m.Slot); cp != nil {
		src = cp.Node
	}
	fs.Net.Send(src, r.Client, fs.Cfg.BlockSize, r.BlockDone)
	m.Release()
}

func (fs *FS) serveWrite(r *fscommon.Request) {
	// Counted before any block is placed: placing one can evict another
	// block of the same span.
	hits := 0
	for i := int32(0); i < r.Span.Count; i++ {
		if fs.Cch.Contains(r.Slot(i)) {
			hits++
		}
	}
	for i := int32(0); i < r.Span.Count; i++ {
		slot := r.Slot(i)
		var target blockdev.NodeID
		if cp := fs.Cch.Find(slot); cp != nil {
			target = cp.Node
			fs.Cch.Use(cp)
			fs.Cch.MarkDirty(slot)
		} else {
			// Full-block overwrite: no read-modify-write needed.
			placed, victims := fs.Cch.Insert(r.Client, slot, cachesim.InsertOptions{Dirty: true})
			fs.FlushVictims(victims)
			target = placed
		}
		fs.Net.Send(r.Client, target, fs.Cfg.BlockSize, r.BlockDone)
	}
	fs.Observe(fs.driverFor(r.File), r.Span, hits)
}
