package cachesim

import (
	"testing"

	"repro/internal/blockdev"
	"repro/internal/sim"
)

func TestGlobalLRUSpreadsPlacementAcrossFreeNodes(t *testing.T) {
	_, c := newTestCache(4, 2, GlobalLRU{})
	// Fill node 0; further inserts "for" node 0 must rotate over the
	// other nodes' free buffers rather than piling onto one.
	c.Insert(0, blk(1, 0), InsertOptions{})
	c.Insert(0, blk(1, 1), InsertOptions{})
	seen := make(map[blockdev.NodeID]bool)
	for i := 2; i < 8; i++ {
		node, _ := c.Insert(0, blk(1, i), InsertOptions{})
		seen[node] = true
	}
	if len(seen) < 3 {
		t.Errorf("placements concentrated on %d nodes, want spread", len(seen))
	}
}

func TestGlobalLRUVictimAgeOrder(t *testing.T) {
	e, c := newTestCache(2, 2, GlobalLRU{})
	// Insert four blocks at increasing times.
	for i := 0; i < 4; i++ {
		e.At(sim.Time(i+1), e.Bind(func(*sim.Engine) {}))
		e.Run()
		c.Insert(blockdev.NodeID(i%2), blk(1, i), InsertOptions{})
	}
	// Victims must come out oldest first as we keep inserting.
	var evicted []blockdev.BlockID
	for i := 4; i < 7; i++ {
		e.At(sim.Time(i+1), e.Bind(func(*sim.Engine) {}))
		e.Run()
		_, vs := c.Insert(0, blk(1, i), InsertOptions{})
		for _, v := range vs {
			evicted = append(evicted, v.Block)
		}
	}
	want := []blockdev.BlockID{blk(1, 0), blk(1, 1), blk(1, 2)}
	if len(evicted) != len(want) {
		t.Fatalf("evicted %v", evicted)
	}
	for i := range want {
		if evicted[i] != want[i] {
			t.Errorf("eviction %d = %v, want %v (LRU order)", i, evicted[i], want[i])
		}
	}
}

func TestTouchProtectsFromEviction(t *testing.T) {
	e, c := newTestCache(1, 3, GlobalLRU{})
	for i := 0; i < 3; i++ {
		e.At(sim.Time(i+1), e.Bind(func(*sim.Engine) {}))
		e.Run()
		c.Insert(0, blk(1, i), InsertOptions{})
	}
	// Touch the oldest; the second-oldest must be the victim.
	e.At(10, e.Bind(func(*sim.Engine) {}))
	e.Run()
	use(c, 0, blk(1, 0))
	_, vs := c.Insert(0, blk(1, 9), InsertOptions{})
	if len(vs) != 1 || vs[0].Block != blk(1, 1) {
		t.Errorf("victims = %v, want [1:1]", vs)
	}
}

func TestNChanceForwardCascadeRespectsCapacity(t *testing.T) {
	// Machine of 3 nodes, 1 buffer each, all holding singlets: the
	// forwarding cascade must terminate and never over-fill anyone.
	_, c := newTestCache(3, 1, NChance{Recirculations: 2})
	c.Insert(0, blk(1, 0), InsertOptions{})
	c.Insert(1, blk(1, 1), InsertOptions{})
	c.Insert(2, blk(1, 2), InsertOptions{})
	for i := 3; i < 20; i++ {
		c.Insert(blockdev.NodeID(i%3), blk(1, i), InsertOptions{})
		for n := 0; n < 3; n++ {
			if got := nodeLen(c, blockdev.NodeID(n)); got > 1 {
				t.Fatalf("node %d holds %d blocks with capacity 1", n, got)
			}
		}
	}
}

func TestUnusedPrefetchedCopies(t *testing.T) {
	_, c := newTestCache(2, 4, GlobalLRU{})
	c.Insert(0, blk(1, 0), InsertOptions{Prefetched: true})
	c.Insert(0, blk(1, 1), InsertOptions{Prefetched: true})
	c.Insert(0, blk(1, 2), InsertOptions{})
	if got := c.UnusedPrefetchedCopies(); got != 2 {
		t.Errorf("unused prefetched = %d, want 2", got)
	}
	use(c, 0, blk(1, 0))
	if got := c.UnusedPrefetchedCopies(); got != 1 {
		t.Errorf("after touch = %d, want 1", got)
	}
}

func TestRandomOtherNodeNeverSelf(t *testing.T) {
	_, c := newTestCache(4, 1, NChance{Recirculations: 8})
	for i := 0; i < 200; i++ {
		if n := c.randomOtherNode(2); n == 2 || int(n) < 0 || int(n) >= 4 {
			t.Fatalf("randomOtherNode(2) = %d", n)
		}
	}
}

func TestInsertMergePreservesRecirculationState(t *testing.T) {
	// Re-inserting an existing block on the same node is a touch; the
	// copy must stay unique.
	_, c := newTestCache(2, 2, NChance{Recirculations: 2})
	c.Insert(0, blk(3, 0), InsertOptions{Prefetched: true})
	c.Insert(0, blk(3, 0), InsertOptions{})
	if n := copiesOf(c, blk(3, 0)); n != 1 {
		t.Fatalf("%d copies after merge", n)
	}
	// The merge counts as a use of the prefetched copy.
	if c.Stats().UsedPrefetches != 1 {
		t.Errorf("UsedPrefetches = %d, want 1", c.Stats().UsedPrefetches)
	}
}

func TestDropRemovesAllCopies(t *testing.T) {
	_, c := newTestCache(3, 2, NChance{Recirculations: 2})
	c.Insert(0, blk(1, 0), InsertOptions{})
	c.Insert(1, blk(1, 0), InsertOptions{})
	c.Insert(2, blk(1, 0), InsertOptions{})
	if copiesOf(c, blk(1, 0)) != 3 {
		t.Fatal("setup: want 3 copies")
	}
	c.Drop(blk(1, 0))
	if c.Contains(blk(1, 0)) || copiesOf(c, blk(1, 0)) != 0 {
		t.Error("Drop left copies behind")
	}
}
