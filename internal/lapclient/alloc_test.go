//go:build !race

package lapclient

import (
	"testing"

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
