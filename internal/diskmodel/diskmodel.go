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

// Disk is one simulated disk. It keeps time (busy time by priority
// class, deepest queue); the file systems' stats.Collector counts the
// operations it completes.
type Disk struct {
	id  blockdev.DiskID
	res *sim.Resource
}

// Array is the machine's set of disks plus the striping function that
// assigns blocks to disks.
type Array struct {
	striper *blockdev.Striper
	disks   []*Disk
	// The full service time of one block read and one block write:
	// seek plus transfer.
	readService, writeService sim.Duration
}

// NewArray builds cfg.Disks disks attached to the engine.
func NewArray(e *sim.Engine, cfg machine.Config) *Array {
	transfer := sim.TransferTime(cfg.BlockSize, cfg.DiskBandwidth)
	a := &Array{
		striper:      blockdev.NewStriper(cfg.Disks),
		disks:        make([]*Disk, cfg.Disks),
		readService:  cfg.DiskReadSeek + transfer,
		writeService: cfg.DiskWriteSeek + transfer,
	}
	for i := range a.disks {
		a.disks[i] = &Disk{id: blockdev.DiskID(i), res: sim.NewResource(e, fmt.Sprintf("disk%d", i))}
	}
	return a
}

// DiskFor returns the disk that stores block b.
func (a *Array) DiskFor(b blockdev.BlockID) *Disk {
	return a.disks[a.striper.DiskFor(b)]
}

// Read queues a read of block b at the given priority; done fires at
// completion. cancelled, if non-nil, lets the caller abandon the
// operation while it is still queued (used by aggressive prefetchers
// after a misprediction).
func (a *Array) Read(b blockdev.BlockID, prio sim.Priority, cancelled func() bool, done sim.HandlerID) {
	a.DiskFor(b).res.Submit(sim.Request{
		Service:   a.readService,
		Priority:  prio,
		Cancelled: cancelled,
		Done:      done,
	})
}

// Write queues a write of block b; writes always run at user priority
// (they are either user-visible or fault-tolerance flushes, both of
// which the paper treats as more important than prefetch).
func (a *Array) Write(b blockdev.BlockID, done sim.HandlerID) {
	a.DiskFor(b).res.Submit(sim.Request{
		Service:  a.writeService,
		Priority: sim.PriorityUser,
		Done:     done,
	})
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
