package lapcache

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/faultinject"
)

// TestEngineChaosStoreFaults hammers one engine from many goroutines
// while its backing store injects errors, short reads and latency
// spikes — the single-node slice of the chaos harness, runnable under
// -race. Invariants: the engine never panics (poison mode is on, so a
// double-release or use-after-release would); per-file outstanding
// prefetch high-water stays at 1; every surfaced error carries the
// injection marker; and after the cache drains, not one pooled buffer
// is still out — faults on the fill path must not leak references.
func TestEngineChaosStoreFaults(t *testing.T) {
	const (
		goroutines = 12
		readsEach  = 150
		fileBlocks = 512
		blockSize  = 64
	)
	plan := faultinject.Plan{Seed: 99, Rules: []faultinject.Rule{
		{Site: faultinject.SiteStoreRead, Kind: faultinject.KindError, P: 0.05, Count: 3},
		{Site: faultinject.SiteStoreRead, Kind: faultinject.KindPartial, P: 0.04, Count: 2},
		{Site: faultinject.SiteStoreRead, Kind: faultinject.KindDelay, P: 0.10, Count: 4, Delay: 100 * time.Microsecond},
		{Site: faultinject.SiteStoreWrite, Kind: faultinject.KindError, P: 0.05, Count: 2},
	}}
	inj, err := faultinject.New(plan)
	if err != nil {
		t.Fatal(err)
	}
	files := map[blockdev.FileID]blockdev.BlockNo{3: fileBlocks, 4: fileBlocks, 5: fileBlocks}
	e := newTestEngine(t, Config{
		Alg:         core.SpecLnAgrISPPM1,
		BlockSize:   blockSize,
		CacheBlocks: 128, // tight: eviction churn under faults
		Shards:      8,
		Workers:     8,
		QueueLen:    64,
		FileBlocks:  files,
		// Not strict: injected failures must surface as errors and
		// invariant counters, never as panics that kill the run.
		StrictLinear: false,
		PoisonBufs:   true,
		Store:        inj.WrapStore(NewMemStore(blockSize, 0)),
	})

	var injectedErrs, cleanReads atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			f := blockdev.FileID(3 + g%3)
			for i := 0; i < readsEach; i++ {
				off := blockdev.BlockNo((g*41 + i*3) % (fileBlocks - 4))
				if i%9 == 0 {
					if err := e.Write(f, off, 1, nil); err != nil {
						if !strings.Contains(err.Error(), "faultinject") {
							t.Errorf("write error without injection marker: %v", err)
						}
						injectedErrs.Add(1)
					}
					continue
				}
				_, _, err := readCopy(e, f, off, int32(1+i%3))
				if err != nil {
					if !strings.Contains(err.Error(), "faultinject") {
						t.Errorf("read error without injection marker: %v", err)
					}
					injectedErrs.Add(1)
					continue
				}
				cleanReads.Add(1)
			}
		}(g)
	}
	wg.Wait()

	// Park every chain, then let in-flight prefetches settle before
	// auditing the pool: a running chain re-issues from its completion
	// callback, after the counters below have already balanced.
	for f := range files {
		e.closeFile(f)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		s := e.Snapshot()
		if s.PrefetchCompleted+s.PrefetchCancelled+s.PrefetchDupSkipped >= s.PrefetchIssued {
			break
		}
		time.Sleep(time.Millisecond)
	}

	if inj.Total() == 0 {
		t.Fatal("the plan injected nothing; the test exercised no fault paths")
	}
	if cleanReads.Load() == 0 {
		t.Fatal("every read failed; budgets should have healed the store")
	}
	snap := e.Snapshot()
	if snap.MaxFileOutstandingHW > 1 {
		t.Errorf("prefetch high-water %d under faults, want <=1", snap.MaxFileOutstandingHW)
	}
	drained := e.DrainCache()
	if drained == 0 {
		t.Error("cache drained zero entries; the run cached nothing")
	}
	if live := e.BufLive(); live != 0 {
		t.Errorf("%d buffers still live after drain: the fault paths leak references", live)
	}
	t.Logf("chaos stress: %d injected faults, %d clean reads, %d injected errors surfaced, %d entries drained",
		inj.Total(), cleanReads.Load(), injectedErrs.Load(), drained)
}
