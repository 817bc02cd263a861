//go:build !race

package cluster

import (
	"testing"

	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/lapcache"
	"repro/internal/lapclient"
)

// TestRemoteHitAllocs gates the cooperative read — a local miss
// forwarded to the ring owner holding the block in memory, two wire
// hops — at zero allocations per read on client, front node and owner
// together (they share this process, and AllocsPerRun counts all of
// it). Node 0's cache is shrunk to 4 blocks so every read forwards;
// its store must never be touched. The race detector instruments allocation, so the
// gate runs under plain `go test` only.
func TestRemoteHitAllocs(t *testing.T) {
	const (
		blockSize = 8192
		hot       = 2048
	)
	nodes, stop, err := StartLocal(3, func(i int, addrs []string) lapcache.Config {
		cacheBlocks := 2 * hot
		if i == 0 {
			cacheBlocks = 4
		}
		return lapcache.Config{
			Alg:         core.SpecNP,
			BlockSize:   blockSize,
			CacheBlocks: cacheBlocks,
			Store:       lapcache.NewMemStore(blockSize, 0),
		}
	})
	if err != nil {
		t.Fatalf("StartLocal: %v", err)
	}
	defer stop()
	f := fileOwnedBy(t, nodes, 1)
	nodes[1].Engine.Preload(f, 0, hot, false)
	c, err := lapclient.DialConn(nodes[0].Addr, 1)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	dsts := [][]byte{make([]byte, blockSize)}
	off := blockdev.BlockNo(0)
	allocs := testing.AllocsPerRun(1000, func() {
		if hit, err := c.ReadInto(f, off, 1, dsts); err != nil || !hit {
			t.Fatalf("block %d: hit=%v err=%v", off, hit, err)
		}
		off++
	})
	if allocs != 0 {
		t.Errorf("%v allocs per remote-hit read, want 0", allocs)
	}
	if s := nodes[0].Engine.Snapshot(); s.StoreReads != 0 || s.RemoteHits == 0 {
		t.Errorf("node 0: %d store reads, %d remote hits; want every read served from the owner's memory",
			s.StoreReads, s.RemoteHits)
	}
}
