// Package conformance defines the cross-predictor invariant suite: a
// golden micro-workload and a live-engine replay script that every
// algorithm registered in core.NamedAlgorithms must survive. The suite
// itself lives in conformance_test.go; this file holds the shared
// fixtures so other packages (and future harnesses) can replay the
// exact same streams.
//
// The fixtures deliberately mix the regimes the repo's predictors
// specialise in — long sequential runs (OBA territory), a recurring
// scattered association (territory of the IS_PPM and BlockPPM history
// graphs), and uniform noise (nobody's territory) — so a predictor
// cannot pass by only ever seeing its own best case.
package conformance

import (
	"repro/internal/blockdev"
	"repro/internal/sim"
	"repro/internal/workload"
)

// MicroTrace builds the golden simulation workload: small enough that
// the whole NamedAlgorithms sweep stays fast under -race, rich enough
// that every predictor both fires and misfires.
//
// Layout: file 0 is scanned sequentially by two clients; file 1 gets a
// recurring root→assets association pattern from two clients; file 2
// absorbs uniform random reads and writes from two more. The result is
// deterministic in nodes and blockSize.
func MicroTrace(nodes int, blockSize int64) *workload.Trace {
	const (
		scanBlocks  = 160
		assocBlocks = 96
		noiseBlocks = 128
		thinkMs     = 5
	)
	tr := &workload.Trace{
		Name: "conformance-micro",
		FileBlocks: map[blockdev.FileID]blockdev.BlockNo{
			0: scanBlocks,
			1: assocBlocks,
			2: noiseBlocks,
		},
	}
	rng := sim.NewRNG(42)
	addProc := func(node int, steps func(crng *sim.RNG, emit func(kind workload.OpKind, file blockdev.FileID, block, size blockdev.BlockNo))) {
		crng := rng.Split()
		proc := workload.Process{Node: blockdev.NodeID(node % nodes)}
		emit := func(kind workload.OpKind, file blockdev.FileID, block, size blockdev.BlockNo) {
			proc.Steps = append(proc.Steps, workload.Step{
				Think:  sim.Duration(crng.Exp(float64(sim.Milliseconds(thinkMs)))),
				Kind:   kind,
				File:   file,
				Offset: int64(block) * blockSize,
				Size:   int64(size) * blockSize,
			})
		}
		steps(crng, emit)
		tr.Procs = append(tr.Procs, proc)
	}

	// Two sequential scanners, offset from each other, over file 0.
	for c := 0; c < 2; c++ {
		start := blockdev.BlockNo(c * scanBlocks / 2)
		addProc(c, func(crng *sim.RNG, emit func(workload.OpKind, blockdev.FileID, blockdev.BlockNo, blockdev.BlockNo)) {
			for i := blockdev.BlockNo(0); i < scanBlocks/2; i += 2 {
				emit(workload.OpRead, 0, (start+i)%scanBlocks, 2)
			}
		})
	}

	// Two association clients on file 1: each loops a fixed root→asset
	// chain whose members are scattered across the file, with a fresh
	// noise block between iterations to break exact-history matching.
	assoc := [][]blockdev.BlockNo{
		{5, 40, 17, 88},
		{60, 9, 73},
	}
	for c := 0; c < 2; c++ {
		chain := assoc[c]
		addProc(2+c, func(crng *sim.RNG, emit func(workload.OpKind, blockdev.FileID, blockdev.BlockNo, blockdev.BlockNo)) {
			for rep := 0; rep < 12; rep++ {
				for _, b := range chain {
					emit(workload.OpRead, 1, b, 1)
				}
				emit(workload.OpRead, 1, blockdev.BlockNo(crng.Intn(assocBlocks)), 1)
			}
		})
	}

	// Two noise clients on file 2: uniform point reads, some rewrites.
	for c := 0; c < 2; c++ {
		addProc(4+c, func(crng *sim.RNG, emit func(workload.OpKind, blockdev.FileID, blockdev.BlockNo, blockdev.BlockNo)) {
			for i := 0; i < 40; i++ {
				b := blockdev.BlockNo(crng.Intn(noiseBlocks))
				emit(workload.OpRead, 2, b, 1)
				if crng.Float64() < 0.25 {
					emit(workload.OpWrite, 2, b, 1)
				}
			}
		})
	}
	return tr
}

// ReadStep is one demand read of the live-engine replay script.
type ReadStep struct {
	File  blockdev.FileID
	Block blockdev.BlockNo
	Count blockdev.BlockNo
}

// EngineFiles is the file table the replay script assumes; pass it as
// the engine's FileBlocks so drivers know where chains must stop.
func EngineFiles() map[blockdev.FileID]blockdev.BlockNo {
	return map[blockdev.FileID]blockdev.BlockNo{1: 128, 2: 64, 3: 64}
}

// EngineScript returns the demand-read script replayed against a live
// engine: a sequential scan (file 1), a looped scattered association
// (file 2), and uniform noise (file 3), interleaved. Deterministic.
func EngineScript() []ReadStep {
	var steps []ReadStep
	rng := sim.NewRNG(7)
	chain := []blockdev.BlockNo{3, 41, 12, 57}
	seq := blockdev.BlockNo(0)
	for i := 0; i < 60; i++ {
		steps = append(steps, ReadStep{File: 1, Block: seq % 128, Count: 2})
		seq += 2
		steps = append(steps, ReadStep{File: 2, Block: chain[i%len(chain)], Count: 1})
		steps = append(steps, ReadStep{File: 3, Block: blockdev.BlockNo(rng.Intn(64)), Count: 1})
	}
	return steps
}
