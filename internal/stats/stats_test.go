package stats

import (
	"testing"

	"repro/internal/sim"
)

// fireEverything drives every recorder the collector has, old and new.
// A gating bug in any of them shows up as a snapshot difference.
func fireEverything(c *Collector) {
	c.ReadDone(sim.Milliseconds(5))
	c.WriteDone()
	c.ReadBlocks(4, 2)
	c.DiskRead()
	c.DiskWrite(1)
}

// snapshot reads every exported counter and ratio.
func snapshot(c *Collector) map[string]float64 {
	return map[string]float64{
		"reads":          float64(c.Reads()),
		"writes":         float64(c.Writes()),
		"avgRead":        float64(c.AvgReadTime()),
		"hitRatio":       c.BlockHitRatio(),
		"diskReads":      float64(c.DiskReads()),
		"diskWrites":     float64(c.DiskWrites()),
		"diskAccesses":   float64(c.DiskAccesses()),
		"writesPerBlock": c.WritesPerBlock(),
	}
}

func assertAllZero(t *testing.T, c *Collector, when string) {
	t.Helper()
	for name, v := range snapshot(c) {
		if v != 0 {
			t.Errorf("%s: %s = %v, want 0", when, name, v)
		}
	}
}

func TestCollectorGatesOnMeasurement(t *testing.T) {
	c := New(4)
	fireEverything(c)
	assertAllZero(t, c, "before StartMeasurement")

	c.StartMeasurement()
	fireEverything(c)
	inWindow := snapshot(c)
	if inWindow["reads"] != 1 || inWindow["writes"] != 1 ||
		inWindow["diskReads"] != 1 || inWindow["diskWrites"] != 1 {
		t.Errorf("collector ignored in-window events: %v", inWindow)
	}
	for name, v := range inWindow {
		if v == 0 {
			t.Errorf("in-window %s = 0, want nonzero", name)
		}
	}

	c.StopMeasurement()
	fireEverything(c)
	after := snapshot(c)
	for name, v := range after {
		if v != inWindow[name] {
			t.Errorf("after StopMeasurement %s changed %v -> %v", name, inWindow[name], v)
		}
	}
}

// TestCollectorZeroWindow pins the degenerate window: start and stop
// with nothing in between leaks nothing from either side.
func TestCollectorZeroWindow(t *testing.T) {
	c := New(4)
	fireEverything(c)
	c.StartMeasurement()
	c.StopMeasurement()
	fireEverything(c)
	assertAllZero(t, c, "empty window")
}

func TestAvgReadTime(t *testing.T) {
	c := New(4)
	c.StartMeasurement()
	c.ReadDone(sim.Milliseconds(2))
	c.ReadDone(sim.Milliseconds(4))
	if got := c.AvgReadTime(); got != sim.Milliseconds(3) {
		t.Errorf("AvgReadTime = %v, want 3ms", got)
	}
	if New(4).AvgReadTime() != 0 {
		t.Error("empty collector should report 0")
	}
}

func TestDiskCounters(t *testing.T) {
	c := New(4)
	c.StartMeasurement()
	c.DiskRead()
	c.DiskRead()
	c.DiskRead()
	c.DiskWrite(0)
	if c.DiskReads() != 3 {
		t.Errorf("DiskReads = %d, want 3", c.DiskReads())
	}
	if c.DiskWrites() != 1 || c.DiskAccesses() != 4 {
		t.Error("totals wrong")
	}
}

// TestWritesPerBlock checks Table 2's metric on the slot-indexed
// collector: writes over distinct blocks, where a block is its slot and
// a write outside the window neither counts nor marks its block.
func TestWritesPerBlock(t *testing.T) {
	for _, tc := range []struct {
		name     string
		before   []int32 // slots written before the window opens
		slots    []int32 // slots written inside it
		distinct int
		perBlock float64
	}{
		{name: "none", perBlock: 0},
		{name: "two blocks", slots: []int32{0, 0, 0, 1}, distinct: 2, perBlock: 2},
		{name: "one block n times", slots: []int32{3, 3, 3, 3, 3, 3, 3}, distinct: 1, perBlock: 7},
		{name: "last slot", slots: []int32{0, 3}, distinct: 2, perBlock: 1},
		{name: "written before the window", before: []int32{2, 3}, slots: []int32{3, 3}, distinct: 1, perBlock: 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := New(4)
			for _, s := range tc.before {
				c.DiskWrite(s)
			}
			c.StartMeasurement()
			for _, s := range tc.slots {
				c.DiskWrite(s)
			}
			if got := c.DiskWrites(); got != uint64(len(tc.slots)) {
				t.Errorf("DiskWrites = %d, want %d", got, len(tc.slots))
			}
			if got := c.distinct; got != tc.distinct {
				t.Errorf("distinct blocks = %d, want %d", got, tc.distinct)
			}
			if got := c.WritesPerBlock(); got != tc.perBlock {
				t.Errorf("WritesPerBlock = %v, want %v", got, tc.perBlock)
			}
		})
	}
}

func TestBlockHitRatio(t *testing.T) {
	c := New(4)
	c.StartMeasurement()
	c.ReadBlocks(8, 6)
	c.ReadBlocks(2, 0)
	if got := c.BlockHitRatio(); got != 0.6 {
		t.Errorf("BlockHitRatio = %v, want 0.6", got)
	}
}
