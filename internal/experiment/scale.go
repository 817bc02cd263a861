// Package experiment defines and runs the paper's evaluation: every
// figure (4–11) and table (1–2), as sweeps of (file system, workload,
// algorithm, per-node cache size) cells over the simulated machines.
//
// It is a straight pipeline with one implementation per stage: names
// (ScaleByName, ParseWorkload, ParseFS) → inputs (Scale.Trace: a
// workload's trace and the machine it runs on) → runs (RunTrace, and
// the RunCells pool under every sweep) → results (Result and Figure
// encode themselves). Package report adds the last stage, verdicts.
package experiment

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Scale sizes a reproduction run. The paper simulated 128-node /
// 50-node machines over trace days; this reproduction shrinks the
// machine and the trace together (documented in DESIGN.md) so a full
// sweep runs in minutes while preserving the ratios that drive the
// results: data footprint vs. global cache size, disk time vs.
// network time, burst rate vs. prefetch bandwidth, and application
// lifetime vs. write-back period.
type Scale struct {
	Name string

	// PM and NOW are the machine configurations used for the CHARISMA
	// and Sprite workloads respectively.
	PM  machine.Config
	NOW machine.Config

	// Charisma and Sprite are the paper workloads' generator
	// parameters.
	Charisma workload.CharismaParams
	Sprite   workload.SpriteParams

	// WarmFraction of requests complete before measurement starts.
	WarmFraction float64

	// CacheSizesMB is the x-axis of every figure.
	CacheSizesMB []int
}

// ScaleByName returns the scale a -scale flag names.
func ScaleByName(name string) (Scale, error) {
	switch name {
	case "full":
		return FullScale(), nil
	case "small":
		return SmallScale(), nil
	case "tiny":
		return TinyScale(), nil
	}
	return Scale{}, fmt.Errorf("unknown scale %q", name)
}

// Trace generates the workload's trace and names the machine it runs
// on: the parallel machine for CHARISMA, the network of workstations
// for Sprite. Nothing else turns a WorkloadKind into generator
// parameters or a machine, so a trace file replays on the machine its
// workload was generated for.
func (s Scale) Trace(kind WorkloadKind) (*workload.Trace, machine.Config, error) {
	var (
		tr  *workload.Trace
		err error
	)
	mach := s.NOW
	switch kind {
	case Charisma:
		mach = s.PM
		tr, err = workload.GenerateCharisma(s.Charisma)
	case Sprite:
		tr, err = workload.GenerateSprite(s.Sprite)
	default:
		err = fmt.Errorf("experiment: unknown workload %d", kind)
	}
	return tr, mach, err
}

// Reseeded returns the scale with every workload generator's seed
// replaced: the same machines and sweep over a different draw of each
// trace.
func (s Scale) Reseeded(seed uint64) Scale {
	s.Charisma.Seed, s.Sprite.Seed = seed, seed
	return s
}

// FullScale returns the configuration used to regenerate the paper's
// figures for EXPERIMENTS.md. The machines keep the paper's Table 1
// latency/bandwidth parameters and disk counts, with the node count
// and trace length shrunk together.
func FullScale() Scale {
	pm := machine.PM()
	pm.Nodes = 16
	pm.Disks = 16 // the paper's PM disk count
	pm.WritebackPeriod = sim.Seconds(12)

	now := machine.NOW()
	now.Nodes = 16
	now.Disks = 8 // the paper's NOW disk count
	now.WritebackPeriod = sim.Seconds(12)

	// The workload doubles the small scale in lockstep with the
	// machine, so every load ratio that shapes the results —
	// processes per node, processes per disk, data footprint per
	// megabyte of global cache — is preserved while the sweep covers
	// twice the machine.
	ch := workload.DefaultCharismaParams()
	ch.Nodes = pm.Nodes
	ch.Apps = 16
	ch.ProcsPerApp = 4
	ch.FilesPerApp = 2
	ch.MeanFileBlocks = 450
	ch.AccessedFraction = 0.7
	ch.Phases = 8
	ch.WritePhaseEvery = 4
	ch.WriteRunLength = 2
	ch.ScratchBlocks = 128
	ch.HotWritesPerPhase = 16

	sp := workload.DefaultSpriteParams()
	sp.Nodes = now.Nodes
	sp.FilesPerClient = 250
	sp.SharedFiles = 60
	sp.SessionsPerClient = 150

	return Scale{
		Name:         "full",
		PM:           pm,
		NOW:          now,
		Charisma:     ch,
		Sprite:       sp,
		WarmFraction: 0.15,
		CacheSizesMB: []int{1, 2, 4, 8, 16},
	}
}

// SmallScale returns a reduced configuration for tests and the
// testing.B benchmarks: same structure, a few times less work.
func SmallScale() Scale {
	s := FullScale()
	s.Name = "small"
	s.PM.Nodes = 8
	s.PM.Disks = 8
	s.NOW.Nodes = 8
	s.NOW.Disks = 4
	s.PM.WritebackPeriod = sim.Seconds(12)
	s.NOW.WritebackPeriod = sim.Seconds(12)

	s.Charisma.Nodes = s.PM.Nodes
	s.Charisma.Apps = 8

	s.Sprite.Nodes = s.NOW.Nodes
	s.Sprite.SharedFiles = 30
	return s
}

// TinyScale returns the smallest meaningful configuration, for quick
// unit tests of the experiment plumbing.
func TinyScale() Scale {
	s := SmallScale()
	s.Name = "tiny"
	s.PM.Nodes, s.PM.Disks = 4, 4
	s.NOW.Nodes, s.NOW.Disks = 4, 2
	s.PM.WritebackPeriod = sim.Seconds(1)
	s.NOW.WritebackPeriod = sim.Seconds(1)
	s.Charisma.Nodes = 4
	s.Charisma.Apps = 3
	s.Charisma.ProcsPerApp = 2
	s.Charisma.MeanFileBlocks = 120
	s.Charisma.Phases = 4
	s.Charisma.WritePhaseEvery = 2
	s.Charisma.WriteRunLength = 1
	s.Charisma.ScratchBlocks = 32
	s.Charisma.HotWritesPerPhase = 8
	s.Charisma.BurstLen = 6
	s.Charisma.BurstPause = sim.Milliseconds(400)
	s.Sprite.Nodes = 4
	s.Sprite.FilesPerClient = 40
	s.Sprite.SharedFiles = 8
	s.Sprite.SessionsPerClient = 40
	s.CacheSizesMB = []int{1, 4, 16}
	return s
}
