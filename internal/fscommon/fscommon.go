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
	// num numbers every file and block of the trace (the trace's shared
	// numbering): the cache, inflight and pfInflight are indexed by a
	// block's slot, degrees by a file's ordinal. A request resolves its
	// file once (NewRequest), and everything after it carries slots.
	num *blockdev.Numbering

	// Alg is the prefetching configuration: it builds the drivers
	// (NewDriver) and the per-file prefetch windows, kept in degrees by
	// ordinal (see Degree). A window counts its file's prefetches in
	// flight over every driver, machine-wide, and never panics: xFS
	// going past the cap on shared files is a finding, not a fault.
	Alg     core.AlgSpec
	degrees []*core.DegreePolicy
	// The windows' summed fates at the metrics window's two edges
	// (StartMeasurement, StopBackground).
	fatesAtStart, fatesAtStop core.Fates

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
		Cch:        cachesim.New(e, cfg.Nodes, cacheBlocksPerNode, policy, num.Len()),
		Coll:       stats.New(num.Len()),
		Alg:        alg,
		degrees:    make([]*core.DegreePolicy, num.Files()),
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
	b.Cch.OnPrefetchUsed = func(slot int32) {
		b.Degree(b.num.Ordinal(slot)).OnTimely()
	}
	return b
}

// Degree returns the prefetch window of the file of ordinal ord,
// creating it on first use. Every driver of the file shares it, and
// it books the timely/late/wasted fates both file systems classify;
// only an adaptive window also steers by them.
func (b *Base) Degree(ord int32) *core.DegreePolicy {
	p := b.degrees[ord]
	if p == nil {
		p = b.Alg.NewDegreePolicy()
		b.degrees[ord] = p
	}
	return p
}

// NewDriver builds a prefetch driver for file f that issues through
// env: the file system decides where a file's drivers run and what
// their env asks, the Base what they are. Every driver of f shares f's
// prefetch window, resolved here, once, and so adds to one count of
// the file's prefetches in flight.
func (b *Base) NewDriver(f blockdev.FileSlots, env core.Env) *core.Driver {
	return core.NewDriver(core.DriverConfig{
		Predictor:  b.Alg.NewPredictor(),
		Mode:       b.Alg.Mode,
		Degree:     b.Degree(f.Ordinal),
		File:       f.ID,
		FileBlocks: blockdev.BlockNo(f.Blocks),
		Env:        env,
	})
}

// Fates returns the prefetch fates booked so far, summed over every
// file's window.
func (b *Base) Fates() core.Fates {
	var f core.Fates
	for _, p := range b.degrees {
		if p != nil {
			f = f.Add(p.Fates())
		}
	}
	return f
}

// MeasuredFates returns the prefetch fates booked inside the metrics
// window: between StartMeasurement and StopBackground.
func (b *Base) MeasuredFates() core.Fates { return b.fatesAtStop.Sub(b.fatesAtStart) }

// MaxPrefetchHighWater returns the largest per-file high-water mark of
// prefetches in flight: 1 on a truly linear run, more when independent
// chains overlapped on a shared file.
func (b *Base) MaxPrefetchHighWater() int {
	hw := 0
	for _, p := range b.degrees {
		if p != nil {
			hw = max(hw, p.HighWater())
		}
	}
	return hw
}

// Observe feeds a request just served to driver d, nil under NP; hits
// is how many of its blocks were cached on arrival where d looks.
func (b *Base) Observe(d *core.Driver, span blockdev.Span, hits int) {
	if d != nil {
		d.OnUserRequest(core.Request{Offset: span.Start, Size: span.Count}, core.Tick(b.Engine.Now()), hits == int(span.Count))
	}
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

// HostOf returns the node attached to the disk holding the block in
// slot.
func (b *Base) HostOf(slot int32) blockdev.NodeID {
	return b.DiskHostNode(b.Disks.DiskFor(b.num.Block(slot)).ID())
}

// diskOp is one disk operation a file system has outstanding — a
// demand fetch, a prefetch or a write-back — in a record that carries
// what its completion needs, with the handlers the disk and the engine
// take bound once, when the record is first made. A finished record
// goes back on the Base's free list.
type diskOp struct {
	b    *Base
	kind opKind
	slot int32
	blk  blockdev.BlockID // the block in slot, which the disks stripe by
	node blockdev.NodeID  // the pool a fetched or prefetched block is for
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

func (b *Base) newOp(kind opKind, slot int32, node blockdev.NodeID) *diskOp {
	var op *diskOp
	if n := len(b.idleOps); n > 0 {
		op, b.idleOps = b.idleOps[n-1], b.idleOps[:n-1]
	} else {
		op = &diskOp{b: b}
		op.onDone, op.onSmear = b.Engine.Bind(op.finished), b.Engine.Bind(op.smear)
		op.onPoll = op.poll
	}
	op.kind, op.slot, op.blk, op.node = kind, slot, b.num.Block(slot), node
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

// DemandFetch reads the block in slot from disk at user priority,
// inserts it into the cache for node, flushes any dirty victims, and
// fires done. Concurrent fetches of the same block coalesce onto one
// disk read.
func (b *Base) DemandFetch(slot int32, node blockdev.NodeID, done sim.HandlerID) {
	if op := b.inflight[slot]; op != nil {
		op.waiters = append(op.waiters, done)
		return
	}
	op := b.newOp(opFetch, slot, node)
	op.waiters = append(op.waiters, done)
	b.inflight[slot] = op
	if b.PrefetchInFlight(slot) {
		// The predictor was right but the prefetch lost the race: demand
		// traffic now duplicates the read at user priority.
		b.Degree(b.num.Ordinal(slot)).OnLate()
	}
	b.Disks.Read(op.blk, sim.PriorityUser, nil, op.onDone)
}

func (op *diskOp) fetched(e *sim.Engine) {
	b := op.b
	b.Coll.DiskRead()
	_, victims := b.Cch.Insert(op.node, op.slot, cachesim.InsertOptions{})
	b.FlushVictims(victims)
	// A waiter that misses on the block again starts a new fetch.
	b.inflight[op.slot] = nil
	for _, w := range op.waiters {
		e.Fire(w)
	}
	op.release()
}

// Prefetch is core.Env.Prefetch for both file systems, which differ
// only in the node whose pool receives the copy: a low-priority disk
// read of the block in slot, inserted flagged as prefetched. The disk polls
// cancelled once, when the read reaches the head of its queue; done
// fires once either way, after the copy is inserted or at once when
// the read is dropped.
func (b *Base) Prefetch(node blockdev.NodeID, slot int32, cancelled func() bool, done func()) bool {
	if b.Stopped() {
		// Draining after the trace: never calling done stalls the
		// chain, which is exactly what lets the run end.
		return true
	}
	b.PrefetchBegin(slot)
	op := b.newOp(opPrefetch, slot, node)
	op.cancelled, op.done = cancelled, done
	b.Disks.Read(op.blk, b.pfPriority, op.onPoll, op.onDone)
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
	op.b.PrefetchEnd(op.slot)
	op.release()
	done()
	return true
}

func (op *diskOp) prefetched() {
	b, done := op.b, op.done
	b.PrefetchEnd(op.slot)
	b.Coll.DiskRead()
	_, victims := b.Cch.Insert(op.node, op.slot, cachesim.InsertOptions{Prefetched: true})
	b.FlushVictims(victims)
	op.release()
	done()
}

// DemandFetchInFlight reports whether a demand read of the block in
// slot is pending.
func (b *Base) DemandFetchInFlight(slot int32) bool {
	return b.inflight[slot] != nil
}

// FlushVictims writes evicted dirty blocks back to disk and books
// speculative copies evicted unused as wasted prefetches.
func (b *Base) FlushVictims(victims []cachesim.Victim) {
	for _, v := range victims {
		if v.WasUnusedPrefetch {
			b.Degree(b.num.Ordinal(v.Slot)).OnWasted()
		}
		if v.Dirty {
			b.writeBack(v.Slot)
		}
	}
}

// writeBack queues a disk write of the block in slot, booked when it
// completes.
func (b *Base) writeBack(slot int32) {
	op := b.newOp(opWrite, slot, 0)
	b.Disks.Write(op.blk, op.onDone)
}

func (op *diskOp) written() {
	op.b.Coll.DiskWrite(op.slot)
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
	dirty := b.Cch.DirtySlots()
	n := len(dirty)
	for i, slot := range dirty {
		delay := sim.Duration(int64(b.Cfg.WritebackPeriod) * int64(i) / int64(n))
		e.After(delay, b.newOp(opWrite, slot, 0).onSmear)
		b.Cch.ClearDirty(slot)
	}
	e.After(b.Cfg.WritebackPeriod, b.wbTick)
}

// StartMeasurement opens the metrics window: the collector starts
// counting, and the prefetch fates booked so far are set aside.
func (b *Base) StartMeasurement() {
	b.Coll.StartMeasurement()
	b.fatesAtStart = b.Fates()
}

// StopBackground ends the run's background activity: the write-back
// daemon stops at its next tick, prefetch environments stop issuing
// (see Stopped), and the metrics window closes, so the post-trace
// drain leaves every reported number alone.
func (b *Base) StopBackground() {
	b.wbStop = true
	b.Coll.StopMeasurement()
	b.fatesAtStop = b.Fates()
}

// Stopped reports whether the run is draining; prefetch environments
// consult it to stop their chains.
func (b *Base) Stopped() bool { return b.wbStop }

// SpanOf converts a trace step to its block span under the machine's
// block size.
func (b *Base) SpanOf(s workload.Step) blockdev.Span {
	return blockdev.ByteRangeToSpan(s.File, s.Offset, s.Size, b.Cfg.BlockSize)
}
