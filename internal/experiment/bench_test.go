package experiment

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/workload"
)

// sweep is the 84 standard cells — {CHARISMA, Sprite} x {PAFS, xFS} x
// the seven standard algorithms x {1, 4, 16} MB — at the small scale,
// with that scale's two traces generated once, before any timer starts.
type sweep struct {
	scale  Scale
	traces map[WorkloadKind]*workload.Trace
	machs  map[WorkloadKind]machine.Config
	cells  []Cell
}

func newSweep(b *testing.B) *sweep {
	sw := &sweep{scale: SmallScale(), traces: map[WorkloadKind]*workload.Trace{}, machs: map[WorkloadKind]machine.Config{}}
	for _, wl := range []WorkloadKind{Charisma, Sprite} {
		tr, mach, err := sw.scale.Trace(wl)
		if err != nil {
			b.Fatal(err)
		}
		sw.traces[wl], sw.machs[wl] = tr, mach
		for _, fs := range []FSKind{PAFS, XFS} {
			for _, alg := range core.StandardAlgorithms() {
				for _, mb := range []int{1, 4, 16} {
					sw.cells = append(sw.cells, Cell{FS: fs, Workload: wl, Alg: alg, CacheMB: mb})
				}
			}
		}
	}
	return sw
}

// input is RunCells' input: the traces generated up front.
func (sw *sweep) input(wl WorkloadKind) (*workload.Trace, machine.Config, error) {
	return sw.traces[wl], sw.machs[wl], nil
}

// BenchmarkSweep simulates the sweep's cells one after another on one
// goroutine, and reports the simulated requests each second of host
// time completes and the allocations each simulator event costs,
// set-up included. It is the in-tree handle on what the simulator
// costs, the work bench's sim_sweep times:
//
//	go test -run '^$' -bench Sweep -benchtime 2x -cpuprofile cpu.out -o exp.test ./internal/experiment/
//
// On one goroutine the collector is almost never marking, so this
// profile shows no write barriers; BenchmarkSweepRunCells shows them.
func BenchmarkSweep(b *testing.B) {
	sw := newSweep(b)
	var (
		requests, events uint64
		before, after    runtime.MemStats
	)
	b.ReportAllocs()
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range sw.cells {
			r, err := RunTrace(sw.traces[c.Workload], sw.machs[c.Workload], c, sw.scale.WarmFraction)
			if err != nil {
				b.Fatal(err)
			}
			requests += r.Reads + r.Writes
			events += r.EventsFired
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(requests)/b.Elapsed().Seconds(), "requests/s")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(events), "allocs/event")
}

// BenchmarkSweepRunCells simulates the same cells through RunCells on
// two workers, as sim_sweep deals them, and reports the simulated
// requests each second of wall time completes. Two simulations
// allocating at once keep the collector marking for much of the run,
// as it is in sim_sweep, so a CPU profile of this benchmark shows what
// the collector's write barriers cost the simulator:
//
//	go test -run '^$' -bench SweepRunCells -benchtime 2x -cpuprofile cpu.out -o exp.test ./internal/experiment/
func BenchmarkSweepRunCells(b *testing.B) {
	sw := newSweep(b)
	var requests uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := RunCells(sw.input, sw.cells, sw.scale.WarmFraction, 2)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			requests += r.Reads + r.Writes
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(requests)/b.Elapsed().Seconds(), "requests/s")
}
