package lapcache

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"repro/internal/blockbuf"
	"repro/internal/blockdev"
	"repro/internal/core"
)

// TestLinearHighWaterUnderStress hammers one file from many goroutines
// under a linear-aggressive algorithm and asserts the per-file
// outstanding-prefetch high-water mark never exceeds 1 — the paper's
// linearity invariant, now as a concurrent safety property. Run with
// -race (make race does): the per-file mutex serializing the
// driver is exactly what the detector exercises here.
func TestLinearHighWaterUnderStress(t *testing.T) {
	const (
		goroutines = 16
		readsEach  = 150
		fileBlocks = 2048
	)
	e := newTestEngine(t, Config{
		Alg:          core.SpecLnAgrISPPM1,
		BlockSize:    64,
		CacheBlocks:  512,
		Shards:       8,
		Workers:      8,
		QueueLen:     64,
		FileBlocks:   map[blockdev.FileID]blockdev.BlockNo{7: fileBlocks},
		StrictLinear: true, // a breach panics the engine mid-test
	})

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Each goroutine scans its own stride so the interleaved
			// stream constantly mispredicts, restarts chains, and
			// races completions against new issues.
			base := blockdev.BlockNo(g * 37 % fileBlocks)
			for i := 0; i < readsEach; i++ {
				off := (base + blockdev.BlockNo(i*3)) % (fileBlocks - 4)
				size := int32(1 + (g+i)%3)
				if _, _, err := readCopy(e, 7, off, size); err != nil {
					t.Errorf("read: %v", err)
					return
				}
				if g%4 == 0 && i%50 == 49 {
					e.CloseFile(7)
				}
			}
		}(g)
	}
	wg.Wait()

	// Let in-flight prefetches drain before the final accounting.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		s := e.Snapshot()
		if s.PrefetchCompleted+s.PrefetchCancelled+s.PrefetchDupSkipped >= s.PrefetchIssued {
			break
		}
		time.Sleep(time.Millisecond)
	}

	snap := e.Snapshot()
	if snap.PrefetchIssued == 0 {
		t.Fatal("stress run issued no prefetches; the test exercised nothing")
	}
	if hw := e.Ledger().FileHighWater(7); hw != 1 {
		t.Errorf("file 7 outstanding high-water = %d, want exactly 1", hw)
	}
	if snap.MaxFileOutstandingHW != 1 {
		t.Errorf("max high-water = %d, want 1: %s", snap.MaxFileOutstandingHW, snap)
	}
	if snap.LinearViolations != 0 {
		t.Errorf("%d linear violations", snap.LinearViolations)
	}
}

// TestRefcountedBuffersUnderStress runs the linearity stress through
// the zero-copy ReadInto path with buffer poisoning on: every handed
// out buffer must still carry its block's fill pattern while held
// (a recycle-while-held would overwrite it with the poison byte), a
// double release panics in blockbuf itself, and the linearity
// invariant must survive the refcounted path exactly as it does the
// copying one. Run with -race (make race does).
func TestRefcountedBuffersUnderStress(t *testing.T) {
	const (
		goroutines = 16
		readsEach  = 120
		fileBlocks = 1024
		blockSize  = 64
	)
	e := newTestEngine(t, Config{
		Alg:          core.SpecLnAgrISPPM1,
		BlockSize:    blockSize,
		CacheBlocks:  256, // small: constant eviction churn recycles buffers hard
		Shards:       8,
		Workers:      8,
		QueueLen:     64,
		FileBlocks:   map[blockdev.FileID]blockdev.BlockNo{7: fileBlocks},
		StrictLinear: true,
		PoisonBufs:   true,
	})

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			want := make([]byte, blockSize)
			var bufs []*blockbuf.Buf
			base := blockdev.BlockNo(g * 37 % fileBlocks)
			for i := 0; i < readsEach; i++ {
				off := (base + blockdev.BlockNo(i*3)) % (fileBlocks - 4)
				size := int32(1 + (g+i)%3)
				var err error
				var hold []*blockbuf.Buf
				hold, _, err = e.ReadInto(bufs[:0], 7, off, size)
				bufs = hold
				if err != nil {
					t.Errorf("read: %v", err)
					return
				}
				// Hold the references across more engine traffic, then
				// verify nothing recycled them out from under us.
				if i%7 == 0 {
					if _, _, err := readCopy(e, 7, (off+13)%(fileBlocks-4), 1); err != nil {
						t.Errorf("interleaved read: %v", err)
						return
					}
				}
				for bi, b := range hold {
					FillPattern(blockdev.BlockID{File: 7, Block: off + blockdev.BlockNo(bi)}, want)
					if !bytes.Equal(b.Bytes(), want) {
						t.Errorf("held buffer for block %d mutated while referenced", off+blockdev.BlockNo(bi))
					}
					b.Release() // exactly once; a second would panic in blockbuf
				}
			}
		}(g)
	}
	wg.Wait()

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		s := e.Snapshot()
		if s.PrefetchCompleted+s.PrefetchCancelled+s.PrefetchDupSkipped >= s.PrefetchIssued {
			break
		}
		time.Sleep(time.Millisecond)
	}

	snap := e.Snapshot()
	if snap.PrefetchIssued == 0 {
		t.Fatal("stress run issued no prefetches; the test exercised nothing")
	}
	if snap.MaxFileOutstandingHW != 1 {
		t.Errorf("max high-water = %d, want exactly 1: %s", snap.MaxFileOutstandingHW, snap)
	}
	if snap.LinearViolations != 0 {
		t.Errorf("%d linear violations", snap.LinearViolations)
	}
	if snap.BufRecycles == 0 {
		t.Error("no buffers recycled; the pool path exercised nothing")
	}
}

// TestManyFilesConcurrent drives distinct files from distinct
// goroutines — the no-sharing case where per-file linearity must also
// hold per goroutine — and checks the counters stay coherent.
func TestManyFilesConcurrent(t *testing.T) {
	const files = 8
	table := make(map[blockdev.FileID]blockdev.BlockNo, files)
	for f := 0; f < files; f++ {
		table[blockdev.FileID(f)] = 256
	}
	e := newTestEngine(t, Config{
		Alg:          core.SpecLnAgrOBA,
		BlockSize:    64,
		CacheBlocks:  1024,
		Workers:      4,
		FileBlocks:   table,
		StrictLinear: true,
	})
	var wg sync.WaitGroup
	for f := 0; f < files; f++ {
		wg.Add(1)
		go func(f blockdev.FileID) {
			defer wg.Done()
			for b := blockdev.BlockNo(0); b < 128; b++ {
				if _, _, err := readCopy(e, f, b, 1); err != nil {
					t.Errorf("file %d: %v", f, err)
					return
				}
			}
		}(blockdev.FileID(f))
	}
	wg.Wait()
	snap := e.Snapshot()
	if snap.MaxFileOutstandingHW > 1 {
		t.Errorf("max high-water = %d, want <= 1", snap.MaxFileOutstandingHW)
	}
	wantReads := uint64(files * 128)
	if snap.DemandHits+snap.DemandMisses != wantReads {
		t.Errorf("hits+misses = %d, want %d", snap.DemandHits+snap.DemandMisses, wantReads)
	}
}
