package blockbuf

import (
	"sync"
	"testing"
)

func TestLifecycle(t *testing.T) {
	p := NewPool(64)
	b := p.Get()
	if p.Live() != 1 {
		t.Fatalf("fresh buf: live = %d, want 1", p.Live())
	}
	if len(b.Bytes()) != 64 {
		t.Fatalf("len = %d, want 64", len(b.Bytes()))
	}
	b.Retain()
	b.Release()
	if p.Live() != 1 {
		t.Fatalf("after Retain and one Release live = %d, want 1", p.Live())
	}
	b.Release() // back to the pool
	if p.Live() != 0 {
		t.Fatalf("after the last Release live = %d, want 0", p.Live())
	}

	allocs, recycles := p.Stats()
	if allocs != 1 || recycles != 0 {
		t.Errorf("stats = %d allocs / %d recycles, want 1/0", allocs, recycles)
	}
	// sync.Pool is advisory (and drops Puts at random under -race), so
	// churn until a recycle shows up rather than demanding the first
	// Get return the same buffer.
	for i := 0; i < 100; i++ {
		p.Get().Release()
		if _, recycles := p.Stats(); recycles > 0 {
			return
		}
	}
	t.Error("pool never recycled over 100 get/release cycles")
}

func TestDoubleReleasePanics(t *testing.T) {
	p := NewPool(8)
	b := p.Get()
	b.Retain()
	b.Release()
	b.Release() // refcount hits zero; buffer is pooled
	defer func() {
		if recover() == nil {
			t.Error("third Release did not panic")
		}
	}()
	b.Release()
}

func TestRetainAfterReleasePanics(t *testing.T) {
	p := NewPool(8)
	b := p.Get()
	b.Release()
	defer func() {
		if recover() == nil {
			t.Error("Retain of a dead buffer did not panic")
		}
	}()
	b.Retain()
}

// TestPoisonCatchesUseAfterRelease writes through a stale reference
// after the last Release; the next recycle must detect the corruption.
func TestPoisonCatchesUseAfterRelease(t *testing.T) {
	p := NewPool(16)
	p.SetPoison(true)
	b := p.Get()
	stale := b.Bytes()
	b.Release()
	stale[3] = 0x42 // use after free
	caught := false
	func() {
		defer func() {
			if recover() != nil {
				caught = true
			}
		}()
		// Keep getting until the pool hands the poisoned buffer back
		// (the first Get normally does, but sync.Pool makes no promise
		// and drops Puts at random under -race).
		for i := 0; i < 100; i++ {
			nb := p.Get()
			if &nb.Bytes()[0] == &stale[0] {
				t.Fatal("poison check passed on a corrupted buffer")
			}
		}
	}()
	if !caught {
		if raceEnabled {
			t.Skip("pool never returned the corrupted buffer; nothing to check")
		}
		t.Error("recycling a corrupted buffer did not panic")
	}
}

// TestConcurrentRetainRelease hammers one buffer's refcount from many
// goroutines under -race: every Retain is matched by a Release and the
// count must come back to the owner's single reference.
func TestConcurrentRetainRelease(t *testing.T) {
	p := NewPool(32)
	b := p.Get()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				b.Retain()
				_ = b.Bytes()[0]
				b.Release()
			}
		}()
	}
	wg.Wait()
	if p.Live() != 1 {
		t.Errorf("live = %d after balanced retain/release storm, want 1", p.Live())
	}
	b.Release() // the owner's reference, the last one
	if p.Live() != 0 {
		t.Errorf("live = %d after the owner's Release, want 0", p.Live())
	}
}

// TestPoolRecyclesUnderChurn checks steady-state churn stops
// allocating: after a warm-up Get/Release cycle, allocations stay flat.
func TestPoolRecyclesUnderChurn(t *testing.T) {
	p := NewPool(128)
	for i := 0; i < 64; i++ {
		b := p.Get()
		b.Bytes()[0] = byte(i)
		b.Release()
	}
	allocs, recycles := p.Stats()
	// The race detector makes sync.Pool drop Puts at random; only hold
	// the tight allocation bound in a plain run.
	limit := uint64(8)
	if raceEnabled {
		limit = 56
	}
	if allocs > limit {
		t.Errorf("%d allocations over 64 sequential get/release cycles; pool is not recycling (%d recycles)",
			allocs, recycles)
	}
	if recycles == 0 {
		t.Error("no recycles over 64 sequential get/release cycles")
	}
}
