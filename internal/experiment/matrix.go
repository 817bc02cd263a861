package experiment

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/workload"
)

// Matrix holds the results of one (workload, file system) sweep over
// algorithms and cache sizes — the raw material of two figures (a
// read-time figure and a disk-access figure) and, for CHARISMA/PAFS,
// of Table 2 as well.
type Matrix struct {
	FS           FSKind
	Workload     WorkloadKind
	CacheSizesMB []int
	AlgNames     []string // sweep order, the paper's legend order
	// Results[algName][cacheMB]
	Results map[string]map[int]Result
}

// Run sweeps algorithms × the scale's cache sizes for one (workload,
// fs) pair on RunCells' pool.
func Run(s Scale, fs FSKind, wl WorkloadKind, algs []core.AlgSpec, workers int) (*Matrix, error) {
	m := &Matrix{
		FS:           fs,
		Workload:     wl,
		CacheSizesMB: append([]int(nil), s.CacheSizesMB...),
		Results:      make(map[string]map[int]Result),
	}
	var cells []Cell
	for _, a := range algs {
		m.AlgNames = append(m.AlgNames, a.Name())
		m.Results[a.Name()] = make(map[int]Result)
		for _, mb := range s.CacheSizesMB {
			cells = append(cells, Cell{FS: fs, Workload: wl, Alg: a, CacheMB: mb})
		}
	}
	results, err := RunCells(s.Trace, cells, s.WarmFraction, workers)
	if err != nil {
		return nil, err
	}
	for _, r := range results {
		m.Results[r.Cell.Alg.Name()][r.Cell.CacheMB] = r
	}
	return m, nil
}

// RunCells simulates the cells on a pool of workers (0 = GOMAXPROCS)
// and returns their results in cell order. input — Scale.Trace, or
// anything else that yields a trace and the machine to run it on — is
// asked once per distinct workload among the cells, and every cell of
// that workload shares the trace read-only. Cells are independent
// simulations with fixed seeds, so parallelism cannot change any
// number.
func RunCells(input func(WorkloadKind) (*workload.Trace, machine.Config, error),
	cells []Cell, warmFraction float64, workers int) ([]Result, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	type source struct {
		tr   *workload.Trace
		mach machine.Config
	}
	sources := make(map[WorkloadKind]source)
	for _, c := range cells {
		if _, ok := sources[c.Workload]; ok {
			continue
		}
		tr, mach, err := input(c.Workload)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.Workload, err)
		}
		sources[c.Workload] = source{tr, mach}
	}

	results := make([]Result, len(cells))
	var (
		next     atomic.Int64 // the next cell to hand out
		firstErr atomic.Pointer[error]
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// No worker takes another cell once one has failed: a sweep
			// that cannot complete should not burn minutes simulating
			// the rest. Cells already running finish.
			for firstErr.Load() == nil {
				i := int(next.Add(1)) - 1
				if i >= len(cells) {
					return
				}
				src := sources[cells[i].Workload]
				res, err := runTrace(src.tr, src.mach, cells[i], warmFraction)
				if err != nil {
					err = fmt.Errorf("%s: %w", cells[i], err)
					firstErr.CompareAndSwap(nil, &err)
					return
				}
				results[i] = res
			}
		}()
	}
	wg.Wait()
	if err := firstErr.Load(); err != nil {
		return nil, *err
	}
	return results, nil
}

// runTrace is RunTrace behind an indirection so tests can count how
// many cells a sweep actually dispatched.
var runTrace = RunTrace

// Get returns the result for one algorithm at one cache size.
func (m *Matrix) Get(algName string, cacheMB int) (Result, bool) {
	row, ok := m.Results[algName]
	if !ok {
		return Result{}, false
	}
	r, ok := row[cacheMB]
	return r, ok
}

// MustGet is Get that panics on absence (experiment-internal use).
func (m *Matrix) MustGet(algName string, cacheMB int) Result {
	r, ok := m.Get(algName, cacheMB)
	if !ok {
		panic(fmt.Sprintf("experiment: no result for %s @ %dMB", algName, cacheMB))
	}
	return r
}
