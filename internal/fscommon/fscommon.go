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

// Base wires the substrates together; PAFS and xFS embed a pointer to
// it and register their Protocol with Serve, and the Runner drives a
// trace through it. It owns free lists and records whose callbacks are
// bound to it, so it is never copied.
type Base struct {
	Engine *sim.Engine
	Cfg    machine.Config
	Net    *netmodel.Network
	Disks  *diskmodel.Array
	Cch    *cachesim.Cache
	Coll   *stats.Collector
	// num numbers every block of the trace's files (the trace's shared
	// numbering): the cache, inflight and pfInflight are indexed by a
	// block's slot.
	num *blockdev.Numbering

	// Ledger aggregates per-file outstanding-prefetch counts across
	// every driver, machine-wide, with no limit enforced: xFS exceeding
	// 1 on shared files is a finding, not a fault. Both file systems
	// register it as their drivers' observer.
	Ledger *core.Ledger

	// Alg is the prefetching configuration: it builds the drivers
	// (NewDriver) and the per-file prefetch windows, kept in degrees
	// (see Degree).
	Alg     core.AlgSpec
	degrees map[blockdev.FileID]*core.DegreePolicy

	// inflight coalesces concurrent demand fetches of one block onto
	// the first one's disk read; by slot, nil when none is pending.
	inflight []*diskOp
	// pfInflight counts prefetch disk operations in flight per block
	// (xFS nodes can prefetch the same block concurrently), for the
	// late-prefetch classification; by slot.
	pfInflight []int32
	// pfPriority is the disk priority class of prefetch reads. The
	// mapping from the algorithm lives here rather than on core.AlgSpec
	// so the predictor core stays free of simulator types; the runtime
	// engine has no priority classes at all.
	pfPriority sim.Priority
	// wbStop ends the write-back daemon so the event queue can drain
	// once the trace completes; wbTick is the daemon's period.
	wbStop bool
	wbTick sim.HandlerID

	// Finished records, for reuse (see diskOp, Request, Miss), and the
	// file system whose stages the request records run.
	idleOps      []*diskOp
	idleRequests []*Request
	idleMisses   []*Miss
	proto        Protocol
}

// NewBase builds the shared substrate stack for the given machine,
// cache geometry and replacement policy. alg supplies the per-file
// prefetch windows (see Degree).
func NewBase(e *sim.Engine, cfg machine.Config, cacheBlocksPerNode int,
	policy cachesim.Policy, tr *workload.Trace, alg core.AlgSpec) *Base {

	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("fscommon: %v", err))
	}
	num := tr.Numbering()
	b := &Base{
		Engine:     e,
		Cfg:        cfg,
		Net:        netmodel.New(e, cfg),
		Disks:      diskmodel.NewArray(e, cfg),
		Cch:        cachesim.New(e, cfg.Nodes, cacheBlocksPerNode, policy, num),
		Coll:       stats.New(num.Len()),
		Ledger:     core.NewLedger(0, false),
		Alg:        alg,
		degrees:    make(map[blockdev.FileID]*core.DegreePolicy),
		num:        num,
		inflight:   make([]*diskOp, num.Len()),
		pfInflight: make([]int32, num.Len()),
		pfPriority: sim.PriorityPrefetch,
	}
	if alg.UserPriorityPrefetch {
		b.pfPriority = sim.PriorityUser
	}
	// A prefetched copy touched by a user request was a timely
	// prefetch.
	b.Cch.OnPrefetchUsed = func(id blockdev.BlockID) {
		b.Coll.PrefetchTimely()
		b.Degree(id.File).OnTimely()
	}
	return b
}

// Degree returns f's prefetch window, creating it on first use. Every
// driver of f shares it, and the timely/late/wasted lifecycle events
// both file systems classify feed it; a static window (the paper's
// specs) ignores them.
func (b *Base) Degree(f blockdev.FileID) *core.DegreePolicy {
	p := b.degrees[f]
	if p == nil {
		p = b.Alg.NewDegreePolicy()
		b.degrees[f] = p
	}
	return p
}

// NewDriver builds a prefetch driver for file f that issues through
// env: the file system decides where a file's drivers run and what
// their env asks, the Base what they are. Every driver of f shares f's
// prefetch window and reports to the Ledger.
func (b *Base) NewDriver(f blockdev.FileID, env core.Env) *core.Driver {
	return core.NewDriver(core.DriverConfig{
		Predictor:  b.Alg.NewPredictor(),
		Mode:       b.Alg.Mode,
		Degree:     b.Degree(f),
		File:       f,
		FileBlocks: b.FileBlocks(f),
		Env:        env,
		Observer:   b.Ledger,
	})
}

// Observe feeds a request just served to driver d, nil under NP; hits
// is how many of its blocks were cached on arrival where d looks.
func (b *Base) Observe(d *core.Driver, span blockdev.Span, hits int) {
	if d != nil {
		d.OnUserRequest(core.Request{Offset: span.Start, Size: span.Count}, core.Tick(b.Engine.Now()), hits == int(span.Count))
	}
}

// FileBlocks returns file f's size in blocks, panicking on unknown
// files (the trace validates against its file table, so it is a bug).
func (b *Base) FileBlocks(f blockdev.FileID) blockdev.BlockNo {
	n, ok := b.num.Blocks(f)
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

// diskOp is one disk operation a file system has outstanding — a
// demand fetch, a prefetch or a write-back — in a record that carries
// what its completion needs, with the handlers the disk and the engine
// take bound once, when the record is first made. A finished record
// goes back on the Base's free list.
type diskOp struct {
	b    *Base
	kind opKind
	blk  blockdev.BlockID
	node blockdev.NodeID // the pool a fetched or prefetched block is for
	// waiters are the requests a demand fetch serves.
	waiters []sim.HandlerID
	// cancelled and done are a prefetch's callbacks into its driver.
	cancelled func() bool
	done      func()

	onDone  sim.HandlerID // the disk finished
	onPoll  func() bool   // the disk asks whether to drop a prefetch
	onSmear sim.HandlerID // a smeared write-back is due
}

// opKind is what a diskOp's end does.
type opKind uint8

const (
	opFetch    opKind = iota // a demand fetch: fetched
	opPrefetch               // prefetched
	opWrite                  // a write-back: written
)

func (b *Base) newOp(kind opKind, blk blockdev.BlockID, node blockdev.NodeID) *diskOp {
	var op *diskOp
	if n := len(b.idleOps); n > 0 {
		op, b.idleOps = b.idleOps[n-1], b.idleOps[:n-1]
	} else {
		op = &diskOp{b: b}
		op.onDone, op.onSmear = b.Engine.Bind(op.finished), b.Engine.Bind(op.smear)
		op.onPoll = op.poll
	}
	op.kind, op.blk, op.node = kind, blk, node
	return op
}

// release drops what the record refers to and frees it for reuse.
// Only a prefetch sets cancelled and done, so only it pays the pointer
// writes that clear them.
func (op *diskOp) release() {
	op.waiters = op.waiters[:0]
	if op.done != nil {
		op.cancelled, op.done = nil, nil
	}
	op.b.idleOps = append(op.b.idleOps, op)
}

// finished is the disk's completion of the operation.
func (op *diskOp) finished(e *sim.Engine) {
	switch op.kind {
	case opFetch:
		op.fetched(e)
	case opPrefetch:
		op.prefetched()
	case opWrite:
		op.written()
	}
}

// DemandFetch reads blk from disk at user priority, inserts it into
// the cache for node, flushes any dirty victims, and fires done.
// Concurrent fetches of the same block coalesce onto one disk read.
func (b *Base) DemandFetch(blk blockdev.BlockID, node blockdev.NodeID, done sim.HandlerID) {
	slot := b.num.Slot(blk)
	if op := b.inflight[slot]; op != nil {
		op.waiters = append(op.waiters, done)
		return
	}
	op := b.newOp(opFetch, blk, node)
	op.waiters = append(op.waiters, done)
	b.inflight[slot] = op
	if b.PrefetchInFlight(blk) {
		// The predictor was right but the prefetch lost the race: demand
		// traffic now duplicates the read at user priority.
		b.Coll.PrefetchLate()
		b.Degree(blk.File).OnLate()
	}
	b.Disks.Read(blk, sim.PriorityUser, nil, op.onDone)
}

func (op *diskOp) fetched(e *sim.Engine) {
	b := op.b
	b.Coll.DiskRead()
	_, victims := b.Cch.Insert(op.node, op.blk, cachesim.InsertOptions{})
	b.FlushVictims(victims)
	// A waiter that misses on the block again starts a new fetch.
	b.inflight[b.num.Slot(op.blk)] = nil
	for _, w := range op.waiters {
		e.Fire(w)
	}
	op.release()
}

// Prefetch is core.Env.Prefetch for both file systems, which differ
// only in the node whose pool receives the copy: a low-priority disk
// read of blk, inserted flagged as prefetched. The disk polls
// cancelled once, when the read reaches the head of its queue; done
// fires once either way, after the copy is inserted or at once when
// the read is dropped.
func (b *Base) Prefetch(node blockdev.NodeID, blk blockdev.BlockID, fallback bool, cancelled func() bool, done func()) bool {
	if b.Stopped() {
		// Draining after the trace: never calling done stalls the
		// chain, which is exactly what lets the run end.
		return true
	}
	b.Coll.PrefetchIssued(fallback)
	b.PrefetchBegin(blk)
	op := b.newOp(opPrefetch, blk, node)
	op.cancelled, op.done = cancelled, done
	b.Disks.Read(blk, b.pfPriority, op.onPoll, op.onDone)
	return true
}

// poll drops a cancelled prefetch, which also closes its in-flight
// window: without that a dropped prefetch would look in flight forever.
// The disk never completes a dropped read, so poll calls done, which
// hands the driver back its record and completes nothing (core.Env).
func (op *diskOp) poll() bool {
	if op.cancelled == nil || !op.cancelled() {
		return false
	}
	done := op.done
	op.b.PrefetchEnd(op.blk)
	op.release()
	done()
	return true
}

func (op *diskOp) prefetched() {
	b, done := op.b, op.done
	b.PrefetchEnd(op.blk)
	b.Coll.DiskRead()
	_, victims := b.Cch.Insert(op.node, op.blk, cachesim.InsertOptions{Prefetched: true})
	b.FlushVictims(victims)
	op.release()
	done()
}

// DemandFetchInFlight reports whether a demand read of blk is pending.
func (b *Base) DemandFetchInFlight(blk blockdev.BlockID) bool {
	return b.inflight[b.num.Slot(blk)] != nil
}

// FlushVictims writes evicted dirty blocks back to disk and accounts
// speculative copies evicted unused as wasted prefetches.
func (b *Base) FlushVictims(victims []cachesim.Victim) {
	for _, v := range victims {
		if v.WasUnusedPrefetch {
			b.Coll.PrefetchWasted()
			b.Degree(v.Block.File).OnWasted()
		}
		if v.Dirty {
			b.writeBack(v.Block)
		}
	}
}

// writeBack queues a disk write of blk, booked when it completes.
func (b *Base) writeBack(blk blockdev.BlockID) {
	b.Disks.Write(blk, b.newOp(opWrite, blk, 0).onDone)
}

func (op *diskOp) written() {
	op.b.Coll.DiskWrite(op.b.num.Slot(op.blk))
	op.release()
}

// smear is a write-back the daemon put off to its place in the period.
func (op *diskOp) smear(*sim.Engine) {
	if op.b.wbStop {
		op.release()
		return
	}
	op.b.Disks.Write(op.blk, op.onDone)
}

// StartWriteback launches the periodic fault-tolerance daemon: every
// period, every dirty block is written to disk and marked clean. The
// paper's Table 2 effect — faster applications mean fewer periodic
// writes per block — falls out of this loop.
func (b *Base) StartWriteback() {
	b.wbTick = b.Engine.Bind(b.writebackTick)
	b.Engine.After(b.Cfg.WritebackPeriod, b.wbTick)
}

// writebackTick is one period of the write-back daemon.
func (b *Base) writebackTick(e *sim.Engine) {
	if b.wbStop {
		return
	}
	// Smear the flushes uniformly across the coming period instead of
	// dumping them all at once: a synchronized burst of thousands of
	// writes would periodically flood the disk queues and swamp every
	// other effect being measured.
	dirty := b.Cch.DirtyBlocks()
	n := len(dirty)
	for i, blk := range dirty {
		delay := sim.Duration(int64(b.Cfg.WritebackPeriod) * int64(i) / int64(n))
		e.After(delay, b.newOp(opWrite, blk, 0).onSmear)
		b.Cch.ClearDirty(blk)
	}
	e.After(b.Cfg.WritebackPeriod, b.wbTick)
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

// SpanOf converts a trace step to its block span under the machine's
// block size.
func (b *Base) SpanOf(s workload.Step) blockdev.Span {
	return blockdev.ByteRangeToSpan(s.File, s.Offset, s.Size, b.Cfg.BlockSize)
}
