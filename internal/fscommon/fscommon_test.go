package fscommon_test

import (
	"testing"

	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/fscommon"
	"repro/internal/machine"
	"repro/internal/pafs"
	"repro/internal/sim"
	"repro/internal/workload"
)

func smallMachine() machine.Config {
	cfg := machine.PM()
	cfg.Nodes = 4
	cfg.Disks = 2
	cfg.WritebackPeriod = sim.Seconds(1)
	return cfg
}

// seqTrace builds a trace of two processes sequentially scanning their
// own file.
func seqTrace(blocksPerFile int, steps int) *workload.Trace {
	tr := &workload.Trace{
		Name: "seq",
		FileBlocks: map[blockdev.FileID]blockdev.BlockNo{
			0: blockdev.BlockNo(blocksPerFile),
			1: blockdev.BlockNo(blocksPerFile),
		},
	}
	for p := 0; p < 2; p++ {
		proc := workload.Process{Node: blockdev.NodeID(p)}
		for i := 0; i < steps; i++ {
			proc.Steps = append(proc.Steps, workload.Step{
				Think:  sim.Milliseconds(1),
				Kind:   workload.OpRead,
				File:   blockdev.FileID(p),
				Offset: int64(i%blocksPerFile) * 8192,
				Size:   8192,
			})
		}
		tr.Procs = append(tr.Procs, proc)
	}
	return tr
}

func TestRunnerCompletesTrace(t *testing.T) {
	e := sim.NewEngine(1)
	tr := seqTrace(32, 50)
	fs := pafs.New(e, pafs.Config{
		Machine:            smallMachine(),
		CacheBlocksPerNode: 64,
		Algorithm:          core.SpecNP,
	}, tr)
	r := fscommon.NewRunner(fs.Base, tr, 0)
	r.Run(e)
	if !r.Done() {
		t.Fatal("runner did not complete the trace")
	}
	if got := fs.Coll.Reads(); got != uint64(tr.TotalSteps()) {
		t.Errorf("collector saw %d reads, want %d", got, tr.TotalSteps())
	}
}

func TestRunnerWarmupGatesMeasurement(t *testing.T) {
	e := sim.NewEngine(1)
	tr := seqTrace(32, 50)
	fs := pafs.New(e, pafs.Config{
		Machine:            smallMachine(),
		CacheBlocksPerNode: 64,
		Algorithm:          core.SpecNP,
	}, tr)
	r := fscommon.NewRunner(fs.Base, tr, 0.5)
	r.Run(e)
	if !r.Done() {
		t.Fatal("runner did not complete")
	}
	total := uint64(tr.TotalSteps())
	got := fs.Coll.Reads()
	if got >= total || got == 0 {
		t.Errorf("measured %d of %d reads; warm-up gating broken", got, total)
	}
}

func TestRunnerClosedLoopOrdering(t *testing.T) {
	// With a closed loop, a process's steps complete strictly in
	// order; hits later in the trace require the earlier fetch.
	e := sim.NewEngine(1)
	tr := seqTrace(8, 24) // wraps the 8-block file 3 times
	fs := pafs.New(e, pafs.Config{
		Machine:            smallMachine(),
		CacheBlocksPerNode: 64,
		Algorithm:          core.SpecNP,
	}, tr)
	r := fscommon.NewRunner(fs.Base, tr, 0)
	r.Run(e)
	// 8 distinct blocks per file: only the first pass misses.
	if got := fs.Coll.DiskReads(); got != 16 {
		t.Errorf("disk reads = %d, want 16 (8 per file)", got)
	}
}

func TestRunnerRejectsBadWarmFraction(t *testing.T) {
	e := sim.NewEngine(1)
	tr := seqTrace(4, 4)
	fs := pafs.New(e, pafs.Config{
		Machine:            smallMachine(),
		CacheBlocksPerNode: 8,
		Algorithm:          core.SpecNP,
	}, tr)
	for _, f := range []float64{-0.1, 1.0, 2.0} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("warm fraction %v accepted", f)
				}
			}()
			fscommon.NewRunner(fs.Base, tr, f)
		}()
	}
}

func TestBaseHostOfInRange(t *testing.T) {
	e := sim.NewEngine(1)
	tr := seqTrace(4, 1)
	fs := pafs.New(e, pafs.Config{
		Machine:            smallMachine(),
		CacheBlocksPerNode: 8,
		Algorithm:          core.SpecNP,
	}, tr)
	for b := int32(0); b < int32(tr.Numbering().Len()); b++ {
		n := fs.HostOf(b)
		if int(n) < 0 || int(n) >= fs.Cfg.Nodes {
			t.Errorf("HostOf block %d = node %d out of range", b, n)
		}
	}
}

// TestRequestOnUnknownFilePanics: a request resolves its file when it
// is made, and a file outside the trace's table is a bug, for a close
// as much as for a read.
func TestRequestOnUnknownFilePanics(t *testing.T) {
	e := sim.NewEngine(1)
	tr := seqTrace(4, 1)
	fs := pafs.New(e, pafs.Config{
		Machine:            smallMachine(),
		CacheBlocksPerNode: 8,
		Algorithm:          core.SpecNP,
	}, tr)
	for name, issue := range map[string]func(){
		"read":  func() { fs.Read(0, blockdev.Span{File: 999, Count: 1}, func(sim.Time) {}) },
		"close": func() { fs.Close(0, 999, func(sim.Time) {}) },
		"read past the end of a file": func() {
			fs.Read(0, blockdev.Span{File: 0, Start: tr.FileBlocks[0] - 1, Count: 2}, func(sim.Time) {})
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("a %s did not panic", name)
				}
			}()
			issue()
		}()
	}
}
