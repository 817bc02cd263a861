package lapcache

import (
	"bytes"
	"runtime"
	"sync"
	"sync/atomic"
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
					e.closeFile(7)
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
	if hw := e.HighWaters()[7]; hw != 1 {
		t.Errorf("file 7 outstanding high-water = %d, want exactly 1", hw)
	}
	if snap.MaxFileOutstandingHW != 1 {
		t.Errorf("max high-water = %d, want 1: %s", snap.MaxFileOutstandingHW, snap)
	}
	if snap.LinearViolations != 0 {
		t.Errorf("%d linear violations", snap.LinearViolations)
	}
}

// TestHighWatersReadWhileServing reads the files' prefetch counts,
// through HighWaters and Snapshot, from another goroutine while a
// linear engine serves a sequential stream: the driver updates its
// file's window under the file's mutex, requests and the cache book
// fates on it under none, and the readers take the window's atomic
// high-water, over-cap and fate counters under none. Run with -race
// (CI runs it twenty times). No fate total may ever go down, and the
// stream's file must end at a high-water of exactly 1 with its
// prefetches issued and used.
func TestHighWatersReadWhileServing(t *testing.T) {
	const (
		f      = blockdev.FileID(5)
		blocks = 256
	)
	e := newTestEngine(t, Config{
		Alg:         core.SpecLnAgrISPPM1,
		CacheBlocks: 1024,
		Store:       NewMemStore(512, 50*time.Microsecond),
		FileBlocks:  map[blockdev.FileID]blockdev.BlockNo{f: blocks},
	})
	stop := make(chan struct{})
	rounds := make(chan int, 1)
	go func() {
		n := 0
		defer func() { rounds <- n }()
		var last [5]uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			hw, s := e.HighWaters()[f], e.Snapshot()
			if hw > 1 || s.MaxFileOutstandingHW > 1 || s.LinearViolations != 0 {
				t.Errorf("mid-stream: file high-water %d, max %d, %d violations; want <= 1, <= 1, 0",
					hw, s.MaxFileOutstandingHW, s.LinearViolations)
				return
			}
			fates := [5]uint64{s.PrefetchIssued, s.PrefetchFallback, s.PrefetchTimely, s.PrefetchLate, s.PrefetchWasted}
			for i := range fates {
				if fates[i] < last[i] {
					t.Errorf("mid-stream: issued/fallback/timely/late/wasted went from %v to %v", last, fates)
					return
				}
			}
			last = fates
			n++
		}
	}()
	for b := blockdev.BlockNo(0); b < blocks; b++ {
		if _, _, err := readCopy(e, f, b, 1); err != nil {
			t.Fatalf("Read(%d): %v", b, err)
		}
	}
	close(stop)
	if n := <-rounds; n == 0 {
		t.Error("the reader never read the counts while the stream ran")
	}
	if hw := e.HighWaters()[f]; hw != 1 {
		t.Errorf("file %d high-water = %d after the stream, want exactly 1", f, hw)
	}
	if s := e.Snapshot(); s.PrefetchIssued == 0 || s.PrefetchTimely+s.PrefetchLate == 0 {
		t.Errorf("after the stream: %d issued, %d timely, %d late; want prefetches issued and used", s.PrefetchIssued, s.PrefetchTimely, s.PrefetchLate)
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

// TestAnchoredChainUnderEviction races the one thing an anchored chain
// relies on — the cache's eviction count — against the evictions
// themselves. One reader scans a fully cached file under the server's
// default algorithm, its chain anchored and keeping its place from hit
// to hit; meanwhile another goroutine inserts foreign blocks, each of
// which evicts a block a little ahead of the reader, inside the window
// the chain has vouched for. Run with -race (make race does): the
// detector must stay silent, every read must return its block, and
// the linear bound must hold. Then, with the evictor stopped and the
// chain anchored again, one block of the window is evicted: the next
// satisfied request must walk from its real position and send for that
// block at once — one prefetch, the parent's behaviour — not keep its
// place and let the reader run into the hole.
func TestAnchoredChainUnderEviction(t *testing.T) {
	const (
		file, foreign, filler = blockdev.FileID(1), blockdev.FileID(2), blockdev.FileID(3)

		blockSize    = 64
		blocks       = 1100
		fillerBlocks = 400
		scan         = 950 // the reader's position when the evictor is through
		target       = blockdev.BlockNo(990)
	)
	isVictim := func(b blockdev.BlockNo) bool { return b >= 100 && b < 900 && b%5 == 0 }
	e := newTestEngine(t, Config{
		Alg:          core.SpecLnAgrISPPM3,
		BlockSize:    blockSize,
		CacheBlocks:  blocks + fillerBlocks, // exactly full once staged
		Shards:       1,                     // one LRU list: the order below is the eviction order
		Workers:      2,
		FileBlocks:   map[blockdev.FileID]blockdev.BlockNo{file: blocks},
		StrictLinear: true,
	})
	// Oldest first: the victims; filler for the refetches to displace;
	// the last act's target; more filler; the rest of the file.
	var victims []blockdev.BlockNo
	for b := blockdev.BlockNo(0); b < blocks; b++ {
		if isVictim(b) {
			victims = append(victims, b)
			e.Preload(file, b, 1, false)
		}
	}
	e.Preload(filler, 0, fillerBlocks/2, false)
	e.Preload(file, target, 1, false)
	e.Preload(filler, fillerBlocks/2, fillerBlocks/2, false)
	for b := blockdev.BlockNo(0); b < blocks; b++ {
		if !isVictim(b) && b != target {
			e.Preload(file, b, 1, false)
		}
	}

	want := make([]byte, blockSize)
	var bufs []*blockbuf.Buf
	read := func(b blockdev.BlockNo) (hit bool) {
		var err error
		bufs, hit, err = e.ReadInto(bufs[:0], file, b, 1)
		if err != nil {
			t.Fatalf("block %d: %v", b, err)
		}
		FillPattern(blockdev.BlockID{File: file, Block: b}, want)
		if !bytes.Equal(bufs[0].Bytes(), want) {
			t.Errorf("block %d: wrong contents", b)
		}
		bufs[0].Release()
		return hit
	}

	// The two keep each other in range: a victim goes once it is within
	// 50 blocks of the reader, who does not come within 10 of the next
	// victim before it went — so every eviction lands in the window.
	var pos, gone atomic.Int64 // the reader's block; how many victims went
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k, v := range victims {
			for pos.Load() < int64(v)-50 {
				runtime.Gosched()
			}
			e.Preload(foreign, blockdev.BlockNo(k), 1, false)
			gone.Store(int64(k + 1))
		}
	}()
	for b := blockdev.BlockNo(0); b < scan; b++ {
		pos.Store(int64(b))
		for k := gone.Load(); k < int64(len(victims)) && victims[k] < b+10; k = gone.Load() {
			runtime.Gosched()
		}
		read(b)
	}
	wg.Wait()

	quiesced := func() bool {
		s := e.Snapshot()
		return s.PrefetchCompleted+s.PrefetchCancelled+s.PrefetchDupSkipped == s.PrefetchIssued
	}
	waitFor(t, "the race's prefetches to land", quiesced)
	s := e.Snapshot()
	t.Logf("after the race: %s", s)
	if s.PrefetchIssued == 0 || s.DemandHits < scan/2 {
		t.Fatalf("the race exercised nothing: %s", s)
	}

	// The last act. A few hits put the chain back at its anchor …
	next := blockdev.BlockNo(scan)
	for calm := 0; calm < 4; next++ {
		issued := e.Snapshot().PrefetchIssued
		if hit := read(next); hit && e.Snapshot().PrefetchIssued == issued {
			calm++
		} else {
			calm = 0
		}
		if next >= target-20 {
			t.Fatal("the chain never came to rest")
		}
	}
	waitFor(t, "the chain to come to rest", quiesced)
	// … then one block of its window goes (the LRU list's oldest entry
	// is whatever filler the refetches left, then the target) …
	sh := &e.cache.shards[0]
	oldest := func() blockdev.BlockID {
		sh.mu.Lock()
		defer sh.mu.Unlock()
		return sh.slab[sh.head].id
	}
	k := blockdev.BlockNo(len(victims))
	for ; e.cache.Contains(blockdev.BlockID{File: file, Block: target}); k++ {
		if id := oldest(); id.File == file && id.Block != target {
			t.Fatalf("the staging order broke: block %v is next to go", id)
		}
		e.Preload(foreign, k, 1, false)
	}
	// … and the very next hit must notice.
	issued := e.Snapshot().PrefetchIssued
	if hit := read(next); !hit {
		t.Fatalf("block %d was not a hit", next)
	}
	if got := e.Snapshot().PrefetchIssued - issued; got != 1 {
		t.Errorf("%d prefetches issued by the hit after an eviction in the window, want 1 (block %d)", got, target)
	}
	waitFor(t, "the evicted block to come back", func() bool {
		return e.cache.Contains(blockdev.BlockID{File: file, Block: target})
	})
	if snap := e.Snapshot(); snap.MaxFileOutstandingHW != 1 || snap.LinearViolations != 0 {
		t.Errorf("high-water %d, %d linear violations, want 1 and 0", snap.MaxFileOutstandingHW, snap.LinearViolations)
	}
}
