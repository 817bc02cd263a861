//go:build !race

package lapclient

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/lapcache"
)

// TestLocalHitAllocs gates a cached 8 KiB block read with its data
// over loopback at zero allocations per round trip, client and server
// side together (AllocsPerRun counts the whole process): vectored
// request write, recycled call record, payload landed in the caller's
// buffer, response streamed from the refcounted cache buffer. The race
// detector instruments allocation, so the gate runs under plain
// `go test` only.
func TestLocalHitAllocs(t *testing.T) {
	const blockSize = 8192
	eng, _, addr := startServerEngine(t, lapcache.Config{
		Alg: core.SpecNP, BlockSize: blockSize, CacheBlocks: 64,
	})
	eng.Preload(1, 0, 1, false)
	c, err := DialConn(addr, 1)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	dsts := [][]byte{make([]byte, blockSize)}
	allocs := testing.AllocsPerRun(1000, func() {
		if hit, err := c.ReadInto(1, 0, 1, dsts); err != nil || !hit {
			t.Fatalf("hit=%v err=%v", hit, err)
		}
	})
	if allocs != 0 {
		t.Errorf("%v allocs per local-hit round trip, want 0", allocs)
	}
}

// TestPipelinedHitAllocs is TestLocalHitAllocs with eight callers
// sharing one Conn, so the shared flush — queue swap, yield and all —
// is on the path. Goroutines make AllocsPerRun unusable; the gate is a
// process-wide malloc delta over 20 000 cached 8 KiB reads, after a
// warm-up that grows both batches and the server's to their burst
// size.
func TestPipelinedHitAllocs(t *testing.T) {
	const (
		blockSize = 8192
		callers   = 8
		reads     = 20_000
	)
	eng, _, addr := startServerEngine(t, lapcache.Config{
		Alg: core.SpecNP, BlockSize: blockSize, CacheBlocks: 64,
	})
	for f := 1; f <= callers; f++ {
		eng.Preload(blockdev.FileID(f), 0, 1, false)
	}
	c, err := DialConn(addr, callers)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	// run parks the callers on a gate and counts mallocs from the
	// moment it opens until the last caller returns.
	run := func(n int) uint64 {
		var wg sync.WaitGroup
		var before, after runtime.MemStats
		gate := make(chan struct{})
		for g := 0; g < callers; g++ {
			wg.Add(1)
			go func(f blockdev.FileID, dsts [][]byte) {
				defer wg.Done()
				<-gate
				for i := 0; i < n/callers; i++ {
					if hit, err := c.ReadInto(f, 0, 1, dsts); err != nil || !hit {
						t.Errorf("hit=%v err=%v", hit, err)
						return
					}
				}
			}(blockdev.FileID(g+1), [][]byte{make([]byte, blockSize)})
		}
		runtime.ReadMemStats(&before)
		close(gate)
		wg.Wait()
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	run(reads / 4)
	mallocs := run(reads)
	if per := float64(mallocs) / reads; per > 0.01 {
		t.Errorf("%.4f allocs per pipelined hit (%d over %d reads), want at most 0.01", per, mallocs, reads)
	}
	t.Logf("%d mallocs over %d pipelined hits", mallocs, reads)
}
