// Package fscommon holds the plumbing both simulated file systems
// (PAFS and xFS) share: the machine's network and disks, the
// cooperative cache, demand-fetch coalescing, dirty-victim flushing,
// and the periodic fault-tolerance write-back daemon whose behaviour
// drives the paper's Table 2.
package fscommon

import (
	"fmt"

	"repro/internal/blockdev"
	"repro/internal/cachesim"
	"repro/internal/core"
	"repro/internal/diskmodel"
	"repro/internal/machine"
	"repro/internal/netmodel"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// FileSystem is what the trace runner and the experiment layer drive.
type FileSystem interface {
	// Name identifies the file system ("PAFS" or "xFS").
	Name() string
	// Read serves a user read of span for a process on client; done
	// fires when every block has reached the client.
	Read(client blockdev.NodeID, span blockdev.Span, done func(at sim.Time))
	// Write serves a user write of span from client; done fires when
	// the data is absorbed by the cache.
	Write(client blockdev.NodeID, span blockdev.Span, done func(at sim.Time))
	// Close tells the file system the client is done with the file
	// for now; its prefetch chain stops until the next request.
	Close(client blockdev.NodeID, file blockdev.FileID, done func(at sim.Time))
	// Collector exposes the metrics sink.
	Collector() *stats.Collector
	// Cache exposes the cooperative cache (for end-of-run accounting).
	Cache() *cachesim.Cache
	// Start launches background machinery (the write-back daemon).
	Start()
	// StopBackground ends the background machinery so the simulation
	// can drain after the trace completes.
	StopBackground()
}

// Base wires the substrates together; PAFS and xFS embed it.
type Base struct {
	Engine *sim.Engine
	Cfg    machine.Config
	Net    *netmodel.Network
	Disks  *diskmodel.Array
	Cch    *cachesim.Cache
	Coll   *stats.Collector
	// Files maps every file to its size in blocks (from the trace).
	Files map[blockdev.FileID]blockdev.BlockNo

	// Ledger aggregates per-file outstanding-prefetch counts across
	// every driver, machine-wide, with no limit enforced: xFS exceeding
	// 1 on shared files is a finding, not a fault. Both file systems
	// register it as their drivers' observer.
	Ledger *core.Ledger

	// Degrees hands out the per-file outstanding-prefetch policy and
	// routes the timely/late/wasted lifecycle events both file systems
	// already classify to the owning file's controller. Static under
	// the paper's specs; the feedback loop only moves for Adaptive
	// ones.
	Degrees *core.DegreeSet

	// inflight coalesces concurrent demand fetches of one block.
	inflight map[blockdev.BlockID][]func(e *sim.Engine, at sim.Time)
	// inflightFor remembers which node the eventual insert targets.
	inflightFor map[blockdev.BlockID]blockdev.NodeID
	// pfInflight counts prefetch disk operations in flight per block
	// (xFS nodes can prefetch the same block concurrently), for the
	// late-prefetch classification.
	pfInflight map[blockdev.BlockID]int
	// pfPriority is the disk priority class of prefetch reads. The
	// mapping from the algorithm lives here rather than on core.AlgSpec
	// so the predictor core stays free of simulator types; the runtime
	// engine has no priority classes at all.
	pfPriority sim.Priority
	// wbStop ends the write-back daemon so the event queue can drain
	// once the trace completes.
	wbStop bool
}

// NewBase builds the shared substrate stack for the given machine,
// cache geometry and replacement policy. alg supplies the per-file
// degree policies (see Degrees).
func NewBase(e *sim.Engine, cfg machine.Config, cacheBlocksPerNode int,
	policy cachesim.Policy, tr *workload.Trace, alg core.AlgSpec) *Base {

	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("fscommon: %v", err))
	}
	files := make(map[blockdev.FileID]blockdev.BlockNo, len(tr.FileBlocks))
	for id, b := range tr.FileBlocks {
		files[id] = b
	}
	b := &Base{
		Engine:      e,
		Cfg:         cfg,
		Net:         netmodel.New(e, cfg),
		Disks:       diskmodel.NewArray(e, cfg),
		Cch:         cachesim.New(e, cfg.Nodes, cacheBlocksPerNode, policy),
		Coll:        stats.New(),
		Ledger:      core.NewLedger(0, false),
		Degrees:     core.NewDegreeSet(alg),
		Files:       files,
		inflight:    make(map[blockdev.BlockID][]func(e *sim.Engine, at sim.Time)),
		inflightFor: make(map[blockdev.BlockID]blockdev.NodeID),
		pfInflight:  make(map[blockdev.BlockID]int),
		pfPriority:  sim.PriorityPrefetch,
	}
	if alg.UserPriorityPrefetch {
		b.pfPriority = sim.PriorityUser
	}
	// A prefetched copy touched by a user request was a timely
	// prefetch. Capture the collector and degree set (shared pointers)
	// rather than b: the file systems embed a copy of Base.
	coll, degrees := b.Coll, b.Degrees
	b.Cch.OnPrefetchUsed = func(id blockdev.BlockID) {
		coll.PrefetchTimely()
		degrees.OnTimely(id.File)
	}
	return b
}

// Collector returns the metrics sink.
func (b *Base) Collector() *stats.Collector { return b.Coll }

// Cache returns the cooperative cache.
func (b *Base) Cache() *cachesim.Cache { return b.Cch }

// FileBlocks returns file f's size in blocks, panicking on unknown
// files (the trace validates against this map, so it is a bug).
func (b *Base) FileBlocks(f blockdev.FileID) blockdev.BlockNo {
	n, ok := b.Files[f]
	if !ok {
		panic(fmt.Sprintf("fscommon: unknown file %d", f))
	}
	return n
}

// HomeNode returns the node file f hashes to: PAFS runs the file's
// server there, xFS its location manager.
func (b *Base) HomeNode(f blockdev.FileID) blockdev.NodeID {
	return blockdev.NodeID(uint32(f) * 2654435761 % uint32(b.Cfg.Nodes))
}

// DiskHostNode returns the node a disk is attached to: disks are
// spread evenly over the machine, as in both simulated systems.
func (b *Base) DiskHostNode(d blockdev.DiskID) blockdev.NodeID {
	return blockdev.NodeID(int(d) * b.Cfg.Nodes / b.Cfg.Disks)
}

// HostOf returns the node attached to the disk holding blk.
func (b *Base) HostOf(blk blockdev.BlockID) blockdev.NodeID {
	return b.DiskHostNode(b.Disks.DiskFor(blk).ID())
}

// DemandFetch reads blk from disk at user priority, inserts it into
// the cache for node, flushes any dirty victims, and invokes done.
// Concurrent fetches of the same block coalesce onto one disk read.
func (b *Base) DemandFetch(blk blockdev.BlockID, node blockdev.NodeID, done func(e *sim.Engine, at sim.Time)) {
	if waiters, ok := b.inflight[blk]; ok {
		b.inflight[blk] = append(waiters, done)
		return
	}
	b.inflight[blk] = []func(e *sim.Engine, at sim.Time){done}
	b.inflightFor[blk] = node
	if b.PrefetchInFlight(blk) {
		// The predictor was right but the prefetch lost the race: demand
		// traffic now duplicates the read at user priority.
		b.Coll.PrefetchLate()
		b.Degrees.OnLate(blk.File)
	}
	b.Disks.Read(blk, sim.PriorityUser, nil, func(e *sim.Engine, at sim.Time) {
		b.Coll.DiskRead(false)
		target := b.inflightFor[blk]
		_, victims := b.Cch.Insert(target, blk, cachesim.InsertOptions{})
		b.FlushVictims(victims)
		waiters := b.inflight[blk]
		delete(b.inflight, blk)
		delete(b.inflightFor, blk)
		for _, w := range waiters {
			w(e, at)
		}
	})
}

// Prefetch is core.Env.Prefetch for both file systems, which differ
// only in the node whose pool receives the copy: a low-priority disk
// read of blk, inserted flagged as prefetched.
func (b *Base) Prefetch(node blockdev.NodeID, blk blockdev.BlockID, fallback bool, cancelled func() bool, done func()) bool {
	if b.Stopped() {
		// Draining after the trace: never calling done stalls the
		// chain, which is exactly what lets the run end.
		return true
	}
	b.Coll.PrefetchIssued(fallback)
	b.PrefetchBegin(blk)
	b.Disks.Read(blk, b.pfPriority, b.WrapPrefetchCancel(blk, cancelled), func(*sim.Engine, sim.Time) {
		b.PrefetchEnd(blk)
		b.Coll.DiskRead(true)
		_, victims := b.Cch.Insert(node, blk, cachesim.InsertOptions{Prefetched: true})
		b.FlushVictims(victims)
		done()
	})
	return true
}

// Gather returns the per-block completion callback of an n-block
// request: the n-th call fires done with the latest time any call
// reported, since a request is served when its last block is.
func Gather(n int, done func(at sim.Time)) func(*sim.Engine, sim.Time) {
	var last sim.Time
	return func(_ *sim.Engine, at sim.Time) {
		if at > last {
			last = at
		}
		n--
		if n == 0 {
			done(last)
		}
	}
}

// DemandFetchInFlight reports whether a demand read of blk is pending.
func (b *Base) DemandFetchInFlight(blk blockdev.BlockID) bool {
	_, ok := b.inflight[blk]
	return ok
}

// FlushVictims writes evicted dirty blocks back to disk and accounts
// speculative copies evicted unused as wasted prefetches.
func (b *Base) FlushVictims(victims []cachesim.Victim) {
	for _, v := range victims {
		if v.WasUnusedPrefetch {
			b.Coll.PrefetchWasted()
			b.Degrees.OnWasted(v.Block.File)
		}
		if !v.Dirty {
			continue
		}
		blk := v.Block
		b.Disks.Write(blk, func(*sim.Engine, sim.Time) {
			b.Coll.DiskWrite(blk)
		})
	}
}

// StartWriteback launches the periodic fault-tolerance daemon: every
// period, every dirty block is written to disk and marked clean. The
// paper's Table 2 effect — faster applications mean fewer periodic
// writes per block — falls out of this loop.
func (b *Base) StartWriteback() {
	var tick func(e *sim.Engine)
	tick = func(e *sim.Engine) {
		if b.wbStop {
			return
		}
		// Smear the flushes uniformly across the coming period instead
		// of dumping them all at once: a synchronized burst of
		// thousands of writes would periodically flood the disk queues
		// and swamp every other effect being measured.
		dirty := b.Cch.DirtyBlocks()
		n := len(dirty)
		for i, blk := range dirty {
			blk := blk
			delay := sim.Duration(int64(b.Cfg.WritebackPeriod) * int64(i) / int64(n))
			e.After(delay, func(e *sim.Engine) {
				if b.wbStop {
					return
				}
				b.Disks.Write(blk, func(*sim.Engine, sim.Time) {
					b.Coll.DiskWrite(blk)
				})
			})
			b.Cch.ClearDirty(blk)
		}
		e.After(b.Cfg.WritebackPeriod, tick)
	}
	b.Engine.After(b.Cfg.WritebackPeriod, tick)
}

// StopBackground ends the run's background activity: the write-back
// daemon stops at its next tick, prefetch environments stop issuing
// (see Stopped), and the metrics window closes, so the post-trace
// drain leaves every reported number alone.
func (b *Base) StopBackground() {
	b.wbStop = true
	b.Coll.StopMeasurement()
}

// Stopped reports whether the run is draining; prefetch environments
// consult it to stop their chains.
func (b *Base) Stopped() bool { return b.wbStop }

// FinalFlush writes every block still dirty at the end of a run (used
// by experiments so Table 2 counts the trailing state exactly once).
func (b *Base) FinalFlush() {
	for _, blk := range b.Cch.DirtyBlocks() {
		blk := blk
		b.Disks.Write(blk, func(*sim.Engine, sim.Time) {
			b.Coll.DiskWrite(blk)
		})
		b.Cch.ClearDirty(blk)
	}
}

// SpanOf converts a trace step to its block span under the machine's
// block size.
func (b *Base) SpanOf(s workload.Step) blockdev.Span {
	return blockdev.ByteRangeToSpan(s.File, s.Offset, s.Size, b.Cfg.BlockSize)
}
