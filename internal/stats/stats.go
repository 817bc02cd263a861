// Package stats collects the simulator's request and disk metrics the
// paper reports: average read time (Figures 4–7), disk accesses
// (Figures 8–11) and per-block disk write counts (Table 2). Prefetch
// fates, and the misprediction and OBA-fallback ratios drawn from them,
// are booked on each file's window (core.DegreePolicy.Fates), not
// here.
//
// A collector is gated: nothing is recorded until StartMeasurement is
// called, mirroring the paper's use of the first hours of each trace
// to warm the cache before measuring.
package stats

import "repro/internal/sim"

// Collector accumulates one simulation run's metrics.
type Collector struct {
	measuring bool

	reads         uint64
	readLatency   sim.Duration
	writes        uint64
	readBlocks    uint64
	readBlocksHit uint64

	diskReads  uint64
	diskWrites uint64
	// written marks, by slot in the cell's blockdev.Numbering, every
	// block written to disk; distinct counts the marks.
	written  []bool
	distinct int
}

// New returns an idle collector for blocks numbered [0, slots).
func New(slots int) *Collector {
	return &Collector{written: make([]bool, slots)}
}

// StartMeasurement opens the measurement window; counters are zero
// before it.
func (c *Collector) StartMeasurement() { c.measuring = true }

// StopMeasurement closes the window: trailing activity (drained
// prefetch chains, final flushes) is not recorded, mirroring the
// paper's fixed measurement interval inside a longer trace.
func (c *Collector) StopMeasurement() { c.measuring = false }

// ReadDone records a completed user read request and its latency.
func (c *Collector) ReadDone(latency sim.Duration) {
	if !c.measuring {
		return
	}
	c.reads++
	c.readLatency += latency
}

// WriteDone records a completed user write request.
func (c *Collector) WriteDone() {
	if !c.measuring {
		return
	}
	c.writes++
}

// ReadBlocks records how many blocks a read request covered and how
// many of them were already cached on arrival (hit accounting).
func (c *Collector) ReadBlocks(total, hit int) {
	if !c.measuring {
		return
	}
	c.readBlocks += uint64(total)
	c.readBlocksHit += uint64(hit)
}

// DiskRead records one disk block read, demand or prefetch.
func (c *Collector) DiskRead() {
	if !c.measuring {
		return
	}
	c.diskReads++
}

// DiskWrite records one disk block write of the block numbered slot.
func (c *Collector) DiskWrite(slot int32) {
	if !c.measuring {
		return
	}
	c.diskWrites++
	if !c.written[slot] {
		c.written[slot] = true
		c.distinct++
	}
}

// Reads returns the completed user read count.
func (c *Collector) Reads() uint64 { return c.reads }

// Writes returns the completed user write count.
func (c *Collector) Writes() uint64 { return c.writes }

// AvgReadTime returns the mean user read latency — the y-axis of
// Figures 4–7.
func (c *Collector) AvgReadTime() sim.Duration {
	if c.reads == 0 {
		return 0
	}
	return c.readLatency / sim.Duration(c.reads)
}

// DiskReads returns total disk block reads in the window.
func (c *Collector) DiskReads() uint64 { return c.diskReads }

// DiskWrites returns total disk block writes in the window.
func (c *Collector) DiskWrites() uint64 { return c.diskWrites }

// DiskAccesses returns reads plus writes — the y-axis of Figures 8–11.
func (c *Collector) DiskAccesses() uint64 { return c.diskReads + c.diskWrites }

// WritesPerBlock returns the mean number of times a distinct block was
// written to disk — the paper's Table 2 metric.
func (c *Collector) WritesPerBlock() float64 {
	if c.distinct == 0 {
		return 0
	}
	return float64(c.diskWrites) / float64(c.distinct)
}

// BlockHitRatio returns the fraction of requested blocks found cached
// on arrival.
func (c *Collector) BlockHitRatio() float64 {
	if c.readBlocks == 0 {
		return 0
	}
	return float64(c.readBlocksHit) / float64(c.readBlocks)
}
