// Package diskmodel implements the paper's disk model (§5.1): every
// operation pays a latency that depends on the kind of operation (read
// or write seek) plus a transfer time proportional to the block size
// and the disk bandwidth. Each disk serves one operation at a time;
// user operations have strict non-preemptive priority over prefetch
// operations (§4: "Prefetching a block will never be done if other
// operations are waiting to be done on the same disk").
package diskmodel

import (
	"fmt"

	"repro/internal/blockdev"
	"repro/internal/machine"
	"repro/internal/sim"
)

// OpKind distinguishes the two seek latencies.
type OpKind int

// Disk operation kinds.
const (
	OpRead OpKind = iota
	OpWrite
)

// String names the operation kind.
func (k OpKind) String() string {
	if k == OpRead {
		return "read"
	}
	return "write"
}

// Disk is one simulated disk. Its resource counts completed
// operations by kind and by priority class, which is every count the
// disk reports.
type Disk struct {
	id  blockdev.DiskID
	res *sim.Resource
}

// Array is the machine's set of disks plus the striping function that
// assigns blocks to disks.
type Array struct {
	cfg     machine.Config
	striper *blockdev.Striper
	disks   []*Disk
}

// NewArray builds cfg.Disks disks attached to the engine.
func NewArray(e *sim.Engine, cfg machine.Config) *Array {
	a := &Array{
		cfg:     cfg,
		striper: blockdev.NewStriper(cfg.Disks),
		disks:   make([]*Disk, cfg.Disks),
	}
	for i := range a.disks {
		a.disks[i] = &Disk{id: blockdev.DiskID(i), res: sim.NewResource(e, fmt.Sprintf("disk%d", i))}
	}
	return a
}

// ServiceTime returns the full service time of one block operation of
// the given kind: seek plus transfer.
func (a *Array) ServiceTime(kind OpKind) sim.Duration {
	seek := a.cfg.DiskReadSeek
	if kind == OpWrite {
		seek = a.cfg.DiskWriteSeek
	}
	return seek + sim.TransferTime(a.cfg.BlockSize, a.cfg.DiskBandwidth)
}

// DiskFor returns the disk that stores block b.
func (a *Array) DiskFor(b blockdev.BlockID) *Disk {
	return a.disks[a.striper.DiskFor(b)]
}

// Disks returns the number of disks in the array.
func (a *Array) Disks() int { return len(a.disks) }

// Disk returns disk i.
func (a *Array) Disk(i int) *Disk { return a.disks[i] }

// Read queues a read of block b at the given priority; done fires at
// completion. cancelled, if non-nil, lets the caller abandon the
// operation while it is still queued (used by aggressive prefetchers
// after a misprediction).
func (a *Array) Read(b blockdev.BlockID, prio sim.Priority, cancelled func() bool, done func(e *sim.Engine, at sim.Time)) {
	a.DiskFor(b).res.Submit(sim.Request{
		Service:   a.ServiceTime(OpRead),
		Priority:  prio,
		Kind:      int(OpRead),
		Cancelled: cancelled,
		Done:      done,
	})
}

// Write queues a write of block b; writes always run at user priority
// (they are either user-visible or fault-tolerance flushes, both of
// which the paper treats as more important than prefetch).
func (a *Array) Write(b blockdev.BlockID, done func(e *sim.Engine, at sim.Time)) {
	a.DiskFor(b).res.Submit(sim.Request{
		Service:  a.ServiceTime(OpWrite),
		Priority: sim.PriorityUser,
		Kind:     int(OpWrite),
		Done:     done,
	})
}

// Reads returns the number of completed block reads across all disks
// (demand plus prefetch).
func (a *Array) Reads() uint64 {
	var n uint64
	for _, d := range a.disks {
		n += d.Reads()
	}
	return n
}

// Writes returns the number of completed block writes across all disks.
func (a *Array) Writes() uint64 {
	var n uint64
	for _, d := range a.disks {
		n += d.Writes()
	}
	return n
}

// PrefetchReads returns the number of completed prefetch-priority
// reads across all disks (writes never run at that priority).
func (a *Array) PrefetchReads() uint64 {
	var n uint64
	for _, d := range a.disks {
		n += d.res.ServedClass(sim.PriorityPrefetch)
	}
	return n
}

// Accesses returns total disk operations (reads + writes); this is the
// metric plotted in Figures 8–11.
func (a *Array) Accesses() uint64 { return a.Reads() + a.Writes() }

// QueueLen returns the number of queued (waiting) operations on the
// disk holding b; prefetch throttles use it for inspection in tests.
func (a *Array) QueueLen(b blockdev.BlockID) int {
	return a.DiskFor(b).res.QueueLen()
}

// Utilization returns the mean utilization across disks.
func (a *Array) Utilization() float64 {
	if len(a.disks) == 0 {
		return 0
	}
	var u float64
	for _, d := range a.disks {
		u += d.res.Utilization()
	}
	return u / float64(len(a.disks))
}

// PrefetchBusyFraction returns the share of total disk busy time spent
// serving prefetch-priority operations — how much of the arms' work
// was speculative.
func (a *Array) PrefetchBusyFraction() float64 {
	var busy, pf sim.Duration
	for _, d := range a.disks {
		busy += d.res.BusyTime()
		pf += d.res.BusyTimeClass(sim.PriorityPrefetch)
	}
	if busy == 0 {
		return 0
	}
	return float64(pf) / float64(busy)
}

// MaxQueueLenAll returns the deepest waiting queue observed on any
// disk over the run — the congestion high-water mark behind the
// paper's "never queue prefetches behind demand traffic" argument.
func (a *Array) MaxQueueLenAll() int {
	max := 0
	for _, d := range a.disks {
		if q := d.res.MaxQueueLen(); q > max {
			max = q
		}
	}
	return max
}

// ID returns the disk's identifier.
func (d *Disk) ID() blockdev.DiskID { return d.id }

// Reads returns the disk's completed read count.
func (d *Disk) Reads() uint64 { return d.res.ServedKind(int(OpRead)) }

// Writes returns the disk's completed write count.
func (d *Disk) Writes() uint64 { return d.res.ServedKind(int(OpWrite)) }
