//go:build !race

package cachesim

import (
	"testing"

	"repro/internal/blockdev"
)

// TestWarmInsertAllocs gates the cache's steady state at zero
// allocations under both policies: on full pools, an insert evicts (or
// under N-chance forwards) to make room, and a use moves the copy on
// its recency lists, all inside the slab the fill grew and the tables
// New allocated. The race detector instruments allocation, so the gate
// runs under plain `go test` only.
func TestWarmInsertAllocs(t *testing.T) {
	for _, p := range []Policy{GlobalLRU{}, NChance{Recirculations: 2}} {
		_, c := newTestCache(4, 8, p)
		var (
			next, used int
			last       int32
			lastNode   blockdev.NodeID
		)
		burst := func() {
			for i := 0; i < 16; i++ {
				next++
				b := blk(next%10, next/10%128)
				node, _ := c.Insert(blockdev.NodeID(next%4), b, InsertOptions{Dirty: next%3 == 0, Prefetched: next%2 == 0})
				// The block before is no longer the most recent: a use
				// moves it.
				if cp := c.FindOn(lastNode, last); cp != nil {
					c.Use(cp)
					used++
				}
				last, lastNode = b, node
			}
		}
		for i := 0; i < 100; i++ {
			burst() // fill the pools and grow the victim buffer
		}
		removals, used0 := c.Stats().Removals, used
		if allocs := testing.AllocsPerRun(100, burst); allocs != 0 {
			t.Errorf("%T: %v allocs per 16 inserts and uses on a full cache, want 0", p, allocs)
		}
		if c.Stats().Removals == removals || used == used0 {
			t.Errorf("%T: %d removals and %d uses while measured, want some of each", p, c.Stats().Removals-removals, used-used0)
		}
	}
}
