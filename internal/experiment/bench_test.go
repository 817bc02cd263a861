package experiment

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/workload"
)

// BenchmarkSweep simulates the 84 standard cells — {CHARISMA, Sprite}
// x {PAFS, xFS} x the seven standard algorithms x {1, 4, 16} MB, at
// the small scale — one after another on one goroutine, and reports the
// simulated requests each second of host time completes and the
// allocations each simulator event costs, set-up included. The traces
// are generated before the timer starts. It is the in-tree handle on
// what the simulator costs, the work bench's sim_sweep times:
//
//	go test -run '^$' -bench Sweep -benchtime 2x -cpuprofile cpu.out -o exp.test ./internal/experiment/
func BenchmarkSweep(b *testing.B) {
	s := SmallScale()
	type job struct {
		tr   *workload.Trace
		mach machine.Config
		cell Cell
	}
	var jobs []job
	for _, wl := range []WorkloadKind{Charisma, Sprite} {
		tr, mach, err := s.Trace(wl)
		if err != nil {
			b.Fatal(err)
		}
		for _, fs := range []FSKind{PAFS, XFS} {
			for _, alg := range core.StandardAlgorithms() {
				for _, mb := range []int{1, 4, 16} {
					jobs = append(jobs, job{tr, mach, Cell{FS: fs, Workload: wl, Alg: alg, CacheMB: mb}})
				}
			}
		}
	}
	var (
		requests, events uint64
		before, after    runtime.MemStats
	)
	b.ReportAllocs()
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, j := range jobs {
			r, err := RunTrace(j.tr, j.mach, j.cell, s.WarmFraction)
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
