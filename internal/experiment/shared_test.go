package experiment

import (
	"sync"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/core"
)

// TestSharedTraceConcurrentCells runs different cells of one trace on
// two goroutines at once, as a sweep's workers do. Every cell shares
// the numbering the trace builds on first use, so the goroutines race
// to build it: each Result must equal the same cell's run alone on a
// trace of its own, and the trace must hand out one numbering. CI runs
// it repeatedly under the race detector.
func TestSharedTraceConcurrentCells(t *testing.T) {
	s := TinyScale()
	cells := [2][]Cell{
		{
			{FS: PAFS, Workload: Sprite, Alg: core.SpecLnAgrISPPM1, CacheMB: 1},
			{FS: XFS, Workload: Sprite, Alg: core.SpecLnAgrOBA, CacheMB: 4},
		},
		{
			{FS: XFS, Workload: Sprite, Alg: core.SpecLnAgrISPPM3, CacheMB: 1},
			{FS: PAFS, Workload: Sprite, Alg: core.SpecNP, CacheMB: 4},
		},
	}
	var want [2][]Result
	for g, cs := range cells {
		for _, c := range cs {
			tr, mach, err := s.Trace(Sprite)
			if err != nil {
				t.Fatal(err)
			}
			r, err := RunTrace(tr, mach, c, s.WarmFraction)
			if err != nil {
				t.Fatal(err)
			}
			want[g] = append(want[g], r)
		}
	}

	tr, mach, err := s.Trace(Sprite)
	if err != nil {
		t.Fatal(err)
	}
	var (
		got  [2][]Result
		nums [2]*blockdev.Numbering
		errs [2]error
		wg   sync.WaitGroup
	)
	start := make(chan struct{})
	for g := range cells {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for _, c := range cells[g] {
				r, err := RunTrace(tr, mach, c, s.WarmFraction)
				if err != nil {
					errs[g] = err
					return
				}
				got[g] = append(got[g], r)
			}
			nums[g] = tr.Numbering()
		}()
	}
	close(start)
	wg.Wait()
	for g := range cells {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		for i, r := range got[g] {
			if r != want[g][i] {
				t.Errorf("%s on the shared trace:\n%+v\nalone:\n%+v", cells[g][i], r, want[g][i])
			}
		}
	}
	if nums[0] == nil || nums[0] != nums[1] || nums[0] != tr.Numbering() {
		t.Errorf("the trace handed out numberings %p, %p and %p, want one", nums[0], nums[1], tr.Numbering())
	}
}
