//go:build !race

package lapcache

import (
	"testing"

	"repro/internal/blockbuf"
	"repro/internal/blockdev"
	"repro/internal/core"
)

// TestReadIntoAllocs gates the engine's demand-read paths at zero
// allocations per read: a plain cache hit, a miss through the backing
// store (from a one-entry shard and from full multi-entry ones, each
// read evicting), the first touch of a prefetched block (hit plus
// timely classification), and a hit under the server's default predictor,
// where the driver observes the request, finds it where its stopped
// chain foresaw it, and looks one prediction further ahead (65
// allocations a hit while core.Cursor was an interface and the chain
// walked its 64 dry-step predictions anew every time). The race
// detector instruments allocation, so the gate runs under plain
// `go test` only.
func TestReadIntoAllocs(t *testing.T) {
	const runs = 1000
	cases := []struct {
		name        string
		alg         core.AlgSpec
		cacheBlocks int
		preload     int32 // blocks of file 1 staged before the runs
		flagged     bool  // staged as prefetched-and-untouched
		stride      bool  // read a new block every run
		wantHit     bool
		warm        int // reads before the runs
	}{
		{"hit", core.SpecNP, 64, 1, false, false, true, 0},
		// A 1-block cache and a striding scan: every read misses, goes
		// to the (zero-latency) store and, once one read has filled the
		// cache, evicts.
		{"miss", core.SpecNP, 1, 0, false, true, false, 1},
		// The same scan over 64 blocks in 8 shards, read until every
		// shard is full: each read evicts its shard's oldest entry.
		{"missAtCapacity", core.SpecNP, 64, 0, false, true, false, 4 * 64},
		// Twice the staged span: shard hashing is not perfectly even.
		{"prefetchedHit", core.SpecNP, 4 * runs, 2 * runs, true, true, true, 0},
		// Let the predictor's table learn the stream first.
		{"hitPredicted", core.SpecLnAgrISPPM3, 4 * 2048, 2048, false, false, true, 2 * core.MaxOrder},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := newTestEngine(t, Config{Alg: tc.alg, BlockSize: 8192, CacheBlocks: tc.cacheBlocks})
			e.Preload(1, 0, tc.preload, tc.flagged)
			timely := e.Snapshot().PrefetchTimely
			var bufs []*blockbuf.Buf
			off := blockdev.BlockNo(0)
			read := func() {
				var hit bool
				var err error
				bufs, hit, err = e.ReadInto(bufs[:0], 1, off, 1)
				if err != nil || hit != tc.wantHit {
					t.Fatalf("block %d: hit=%v err=%v", off, hit, err)
				}
				bufs[0].Release()
				if tc.stride {
					off++
				}
			}
			for i := 0; i < tc.warm; i++ {
				read()
			}
			evictions := e.cache.evictions.Load()
			allocs := testing.AllocsPerRun(runs, read)
			if allocs != 0 {
				t.Errorf("%v allocs per read, want 0", allocs)
			}
			// AllocsPerRun reads once more than runs, to warm up.
			if got := e.cache.evictions.Load() - evictions; tc.stride && !tc.wantHit && got != runs+1 {
				t.Errorf("%d evictions over %d misses", got, runs+1)
			}
			if got := e.Snapshot().PrefetchTimely - timely; tc.flagged && got != uint64(off) {
				t.Errorf("%d of %d first touches booked timely", got, off)
			}
		})
	}
}
