package diskmodel

import (
	"testing"

	"repro/internal/blockdev"
	"repro/internal/machine"
	"repro/internal/sim"
)

// Table 1's disk: 10.5 ms read seek, 12.5 ms write seek, 8 KiB blocks
// at 10 MB/s (819.2 us of transfer).
var (
	readService  = sim.Milliseconds(10.5) + sim.TransferTime(8192, 10)
	writeService = sim.Milliseconds(12.5) + sim.TransferTime(8192, 10)
)

// A read and a write of one block queue on that block's disk and take
// the formula's service times, one after the other.
func TestServiceTimeFormula(t *testing.T) {
	e := sim.NewEngine(1)
	a := NewArray(e, machine.PM())
	b := blockdev.BlockID{File: 9, Block: 3}
	var readAt, writeAt sim.Time
	a.Read(b, sim.PriorityUser, nil, func(_ *sim.Engine, tm sim.Time) { readAt = tm })
	a.Write(b, func(_ *sim.Engine, tm sim.Time) { writeAt = tm })
	e.Run()
	if want := sim.Time(0).Add(readService); readAt != want {
		t.Errorf("read done at %v, want %v", readAt, want)
	}
	if want := sim.Time(0).Add(readService + writeService); writeAt != want {
		t.Errorf("write done at %v, want %v (after the read, on the same disk)", writeAt, want)
	}
}

func TestReadCompletesAfterServiceTime(t *testing.T) {
	e := sim.NewEngine(1)
	a := NewArray(e, machine.PM())
	var done []sim.Time
	a.Read(blockdev.BlockID{File: 1, Block: 0}, sim.PriorityUser, nil,
		func(_ *sim.Engine, tm sim.Time) { done = append(done, tm) })
	e.Run()
	if len(done) != 1 || done[0] != sim.Time(0).Add(readService) {
		t.Errorf("read done at %v, want once at %v", done, readService)
	}
}

func TestSameDiskSerializesDifferentDisksParallel(t *testing.T) {
	e := sim.NewEngine(1)
	a := NewArray(e, machine.PM())
	b0 := blockdev.BlockID{File: 1, Block: 0}
	b1 := blockdev.BlockID{File: 1, Block: 1} // striped to a different disk
	if a.DiskFor(b0) == a.DiskFor(b1) {
		t.Fatal("test assumes adjacent blocks stripe to different disks")
	}
	var t0, t1, t0b sim.Time
	a.Read(b0, sim.PriorityUser, nil, func(_ *sim.Engine, tm sim.Time) { t0 = tm })
	a.Read(b1, sim.PriorityUser, nil, func(_ *sim.Engine, tm sim.Time) { t1 = tm })
	a.Read(b0, sim.PriorityUser, nil, func(_ *sim.Engine, tm sim.Time) { t0b = tm })
	e.Run()
	if t0 != t1 {
		t.Errorf("different disks should serve in parallel: %v vs %v", t0, t1)
	}
	if t0b != t0.Add(readService) {
		t.Errorf("same disk should serialize: second done %v, want %v", t0b, t0.Add(readService))
	}
}

func TestPrefetchYieldsToUser(t *testing.T) {
	e := sim.NewEngine(1)
	a := NewArray(e, machine.PM())
	b := blockdev.BlockID{File: 2, Block: 0}
	var order []string
	// Fill the disk, then queue prefetch before user.
	a.Read(b, sim.PriorityUser, nil, nil)
	a.Read(b, sim.PriorityPrefetch, nil, func(*sim.Engine, sim.Time) { order = append(order, "prefetch") })
	a.Read(b, sim.PriorityUser, nil, func(*sim.Engine, sim.Time) { order = append(order, "user") })
	e.Run()
	if len(order) != 2 || order[0] != "user" {
		t.Errorf("order = %v, want user before prefetch", order)
	}
	// One of the three equal reads ran at prefetch priority.
	if f := a.PrefetchBusyFraction(); f != 1.0/3 {
		t.Errorf("PrefetchBusyFraction = %v, want 1/3", f)
	}
}

func TestCancelledPrefetchNotCounted(t *testing.T) {
	e := sim.NewEngine(1)
	a := NewArray(e, machine.PM())
	b := blockdev.BlockID{File: 3, Block: 5}
	stale := true
	a.Read(b, sim.PriorityUser, nil, nil) // occupy
	a.Read(b, sim.PriorityPrefetch, func() bool { return stale }, func(*sim.Engine, sim.Time) {
		t.Error("cancelled prefetch completed")
	})
	e.Run()
	// The dropped read took no disk time.
	if e.Now() != sim.Time(0).Add(readService) || a.PrefetchBusyFraction() != 0 {
		t.Errorf("clock %v, prefetch busy share %v; want %v, 0", e.Now(), a.PrefetchBusyFraction(), readService)
	}
}

func TestWriteCounts(t *testing.T) {
	e := sim.NewEngine(1)
	a := NewArray(e, machine.NOW())
	var done []sim.Time
	for i := 0; i < 5; i++ {
		a.Write(blockdev.BlockID{File: 1, Block: blockdev.BlockNo(i)}, func(_ *sim.Engine, tm sim.Time) { done = append(done, tm) })
	}
	e.Run()
	// Five blocks stripe over five of NOW's eight disks: all in parallel.
	if len(done) != 5 {
		t.Fatalf("%d writes completed, want 5", len(done))
	}
	for i, tm := range done {
		if tm != sim.Time(0).Add(writeService) {
			t.Errorf("write %d done at %v, want %v", i, tm, writeService)
		}
	}
}

func TestArrayShape(t *testing.T) {
	e := sim.NewEngine(1)
	a := NewArray(e, machine.PM())
	st := blockdev.NewStriper(16)
	seen := map[*Disk]bool{}
	for blk := blockdev.BlockNo(0); blk < 32; blk++ {
		b := blockdev.BlockID{File: 3, Block: blk}
		d := a.DiskFor(b)
		if d.ID() != st.DiskFor(b) {
			t.Errorf("block %v on disk %d, the striper says %d", b, d.ID(), st.DiskFor(b))
		}
		seen[d] = true
	}
	if len(seen) != 16 {
		t.Errorf("32 blocks of one file reached %d disks, want 16", len(seen))
	}
}

func TestUtilizationPositiveAfterWork(t *testing.T) {
	e := sim.NewEngine(1)
	a := NewArray(e, machine.PM())
	a.Read(blockdev.BlockID{File: 1, Block: 0}, sim.PriorityUser, nil, nil)
	e.Run()
	if u := a.Utilization(); u <= 0 || u > 1 {
		t.Errorf("utilization = %v", u)
	}
}
