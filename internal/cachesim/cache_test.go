package cachesim

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/blockdev"
	"repro/internal/sim"
)

// testFiles numbers files 0-9 of 128 blocks each, every block the
// tests use.
var testFiles = func() *blockdev.Numbering {
	files := make(map[blockdev.FileID]blockdev.BlockNo)
	for f := blockdev.FileID(0); f < 10; f++ {
		files[f] = 128
	}
	return blockdev.NewNumbering(files)
}()

// blk returns the slot of block b of file f in testFiles.
func blk(f, b int) int32 {
	return testFiles.File(blockdev.FileID(f)).Slot(blockdev.BlockID{File: blockdev.FileID(f), Block: blockdev.BlockNo(b)})
}

func newTestCache(nodes, perNode int, p Policy) (*sim.Engine, *Cache) {
	e := sim.NewEngine(1)
	return e, New(e, nodes, perNode, p, testFiles.Len())
}

// copiesOf counts b's copies through the directory, node by node.
func copiesOf(c *Cache, b int32) int {
	n := 0
	for i := range c.nodes {
		if c.FindOn(blockdev.NodeID(i), b) != nil {
			n++
		}
	}
	return n
}

// nodeLen counts the copies on node n's recency list.
func nodeLen(c *Cache, n blockdev.NodeID) int { return int(c.nodes[n].len) }

// use is a user access to node n's copy of b, if there is one.
func use(c *Cache, n blockdev.NodeID, b int32) bool {
	cp := c.FindOn(n, b)
	if cp != nil {
		c.Use(cp)
	}
	return cp != nil
}

// TestCopyHoldsNoPointer keeps the slab pointer-free: every insert,
// eviction and touch rewrites links in it, and a Copy holding a pointer
// would make each such write one the collector has to see.
func TestCopyHoldsNoPointer(t *testing.T) {
	if holdsPointer(reflect.TypeOf(Copy{})) {
		t.Error("cachesim.Copy holds a pointer")
	}
}

// holdsPointer reports whether a value of type t is or contains a
// pointer the collector traces.
func holdsPointer(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if holdsPointer(t.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Array:
		return t.Len() > 0 && holdsPointer(t.Elem())
	case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Slice,
		reflect.Chan, reflect.Func, reflect.Interface, reflect.String:
		return true
	}
	return false
}

func TestInsertAndLookup(t *testing.T) {
	_, c := newTestCache(4, 8, GlobalLRU{})
	node, victims := c.Insert(2, blk(1, 0), InsertOptions{})
	if node != 2 {
		t.Errorf("placed on node %d, want 2", node)
	}
	if len(victims) != 0 {
		t.Errorf("unexpected victims: %v", victims)
	}
	if !c.Contains(blk(1, 0)) || !c.ContainsOn(2, blk(1, 0)) {
		t.Error("block not found after insert")
	}
	if c.ContainsOn(0, blk(1, 0)) {
		t.Error("block reported on wrong node")
	}
	if cp := c.Find(blk(1, 0)); cp == nil || cp.Node != 2 || copiesOf(c, blk(1, 0)) != 1 {
		t.Errorf("Find = %+v among %d copies, want the one copy on node 2", cp, copiesOf(c, blk(1, 0)))
	}
	if c.Find(blk(9, 9)) != nil || c.FindOn(2, blk(9, 9)) != nil {
		t.Error("found a copy of an absent block")
	}
}

// TestFindHolderAfterRemoval pins which copy Find serves from once a
// block's first copy has gone: the directory removes by moving its last
// copy into the hole, so of the copies on nodes 0, 1 and 2, losing node
// 0's leaves node 2's first. xFS serves a remote read from that holder,
// so the order is part of every simulated number.
func TestFindHolderAfterRemoval(t *testing.T) {
	for _, p := range []Policy{GlobalLRU{}, NChance{Recirculations: 2}} {
		_, c := newTestCache(3, 1, p)
		for n := blockdev.NodeID(0); n < 3; n++ {
			c.Insert(n, blk(1, 0), InsertOptions{})
		}
		if cp := c.Find(blk(1, 0)); cp == nil || cp.Node != 0 {
			t.Fatalf("%T: Find = %+v, want node 0's copy", p, cp)
		}
		// Every pool is full and node 0's copy is the oldest and not a
		// singlet, so both policies evict it to make room on node 0.
		if _, victims := c.Insert(0, blk(2, 0), InsertOptions{}); len(victims) != 1 || victims[0].Slot != blk(1, 0) {
			t.Fatalf("%T: victims = %v, want node 0's copy of 1:0", p, victims)
		}
		if cp := c.Find(blk(1, 0)); cp == nil || cp.Node != 2 {
			t.Errorf("%T: Find = %+v after node 0's copy left, want node 2's", p, cp)
		}
	}
}

func TestInsertDuplicateMergesNotDuplicates(t *testing.T) {
	_, c := newTestCache(2, 4, GlobalLRU{})
	c.Insert(0, blk(1, 0), InsertOptions{})
	c.Insert(0, blk(1, 0), InsertOptions{Dirty: true})
	if n := copiesOf(c, blk(1, 0)); n != 1 {
		t.Errorf("%d copies, want 1 (merge, not duplicate)", n)
	}
	if got := c.DirtySlots(); len(got) != 1 {
		t.Errorf("dirty blocks = %v", got)
	}
}

func TestGlobalLRUEvictsOldestAnywhere(t *testing.T) {
	e, c := newTestCache(2, 2, GlobalLRU{})
	// Fill both nodes; advance clock between inserts for distinct ages.
	fill := []struct {
		node blockdev.NodeID
		b    int32
	}{{0, blk(1, 0)}, {0, blk(1, 1)}, {1, blk(1, 2)}, {1, blk(1, 3)}}
	for i, f := range fill {
		e.At(sim.Time(i+1), e.Bind(func(*sim.Engine) {}))
		e.Run()
		c.Insert(f.node, f.b, InsertOptions{})
	}
	// Touch the oldest (1:0) so 1:1 becomes globally oldest.
	use(c, 0, blk(1, 0))
	// Inserting for node 1 (full) must evict 1:1 on node 0 and place there.
	node, victims := c.Insert(1, blk(2, 0), InsertOptions{})
	if len(victims) != 1 || victims[0].Slot != blk(1, 1) {
		t.Fatalf("victims = %v, want [1:1]", victims)
	}
	if node != 0 {
		t.Errorf("placement node = %d, want 0 (victim's node)", node)
	}
	if c.Contains(blk(1, 1)) {
		t.Error("victim still cached")
	}
}

func TestGlobalLRUUsesFreeBuffersBeforeEvicting(t *testing.T) {
	_, c := newTestCache(2, 2, GlobalLRU{})
	c.Insert(0, blk(1, 0), InsertOptions{})
	c.Insert(0, blk(1, 1), InsertOptions{})
	// Node 0 full, node 1 empty: insert for node 0 must go to node 1.
	node, victims := c.Insert(0, blk(1, 2), InsertOptions{})
	if node != 1 || len(victims) != 0 {
		t.Errorf("placement = node %d victims %v, want node 1 and none", node, victims)
	}
}

func TestDirtyVictimFlagged(t *testing.T) {
	_, c := newTestCache(1, 1, GlobalLRU{})
	c.Insert(0, blk(1, 0), InsertOptions{Dirty: true})
	_, victims := c.Insert(0, blk(1, 1), InsertOptions{})
	if len(victims) != 1 || !victims[0].Dirty {
		t.Errorf("victims = %v, want one dirty victim", victims)
	}
}

func TestWastedPrefetchAccounting(t *testing.T) {
	_, c := newTestCache(1, 1, GlobalLRU{})
	c.Insert(0, blk(1, 0), InsertOptions{Prefetched: true})
	_, victims := c.Insert(0, blk(1, 1), InsertOptions{})
	if len(victims) != 1 || !victims[0].WasUnusedPrefetch || victims[0].Slot != blk(1, 0) {
		t.Errorf("victims = %v, want block 0 as an unused-prefetch victim", victims)
	}
	// The demand copy is no prefetch: evicting it wastes nothing.
	_, victims = c.Insert(0, blk(1, 2), InsertOptions{})
	if len(victims) != 1 || victims[0].WasUnusedPrefetch {
		t.Errorf("victims = %v, want one demand victim", victims)
	}
}

func TestUsedPrefetchAccounting(t *testing.T) {
	_, c := newTestCache(1, 4, GlobalLRU{})
	var used []int32
	c.OnPrefetchUsed = func(slot int32) { used = append(used, slot) }
	c.Insert(0, blk(1, 0), InsertOptions{Prefetched: true})
	if !use(c, 0, blk(1, 0)) {
		t.Fatal("touch missed")
	}
	if len(used) != 1 || used[0] != blk(1, 0) {
		t.Errorf("OnPrefetchUsed fired for %v, want block 0 once", used)
	}
	// Second touch must not double count.
	use(c, 0, blk(1, 0))
	if len(used) != 1 {
		t.Error("prefetch hit double-counted")
	}
	// Evicted after its use, the copy is no wasted prefetch.
	for b := 1; b <= 4; b++ {
		_, victims := c.Insert(0, blk(1, b), InsertOptions{})
		for _, v := range victims {
			if v.WasUnusedPrefetch {
				t.Errorf("used block %d evicted as an unused prefetch", v.Slot)
			}
		}
	}
}

func TestMarkDirtyAndWritebackCycle(t *testing.T) {
	_, c := newTestCache(2, 4, GlobalLRU{})
	c.Insert(0, blk(1, 0), InsertOptions{})
	c.Insert(1, blk(1, 1), InsertOptions{})
	if !c.MarkDirty(blk(1, 0)) {
		t.Fatal("MarkDirty missed cached block")
	}
	if c.MarkDirty(blk(7, 7)) {
		t.Error("MarkDirty hit absent block")
	}
	dirty := c.DirtySlots()
	if len(dirty) != 1 || dirty[0] != blk(1, 0) {
		t.Fatalf("DirtySlots = %v", dirty)
	}
	c.ClearDirty(blk(1, 0))
	if len(c.DirtySlots()) != 0 {
		t.Error("block still dirty after ClearDirty")
	}
}

func TestDirtyBlocksSorted(t *testing.T) {
	_, c := newTestCache(1, 8, GlobalLRU{})
	for _, b := range []int32{blk(2, 1), blk(1, 5), blk(1, 2), blk(2, 0)} {
		c.Insert(0, b, InsertOptions{Dirty: true})
	}
	got := c.DirtySlots()
	want := []int32{blk(1, 2), blk(1, 5), blk(2, 0), blk(2, 1)}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("DirtySlots = %v, want %v", got, want)
		}
	}
}

func TestDrop(t *testing.T) {
	_, c := newTestCache(2, 4, GlobalLRU{})
	c.Insert(0, blk(1, 0), InsertOptions{Dirty: true})
	if !c.Drop(blk(1, 0)) {
		t.Fatal("Drop missed cached block")
	}
	if c.Contains(blk(1, 0)) || len(c.DirtySlots()) != 0 || nodeLen(c, 0) != 0 {
		t.Error("Drop left residue")
	}
	if c.Drop(blk(1, 0)) {
		t.Error("Drop of absent block reported true")
	}
}

func TestNChanceForwardsSinglet(t *testing.T) {
	_, c := newTestCache(4, 1, NChance{Recirculations: 2})
	c.Insert(0, blk(1, 0), InsertOptions{})
	// Node 0 is full; inserting another block must forward the singlet
	// 1:0 to some other node rather than dropping it.
	node, victims := c.Insert(0, blk(1, 1), InsertOptions{})
	if node != 0 {
		t.Errorf("xFS placement must be local, got node %d", node)
	}
	if len(victims) != 0 {
		t.Errorf("singlet was dropped: %v", victims)
	}
	if !c.Contains(blk(1, 0)) {
		t.Fatal("forwarded singlet vanished")
	}
	if c.Find(blk(1, 0)).Node == 0 {
		t.Error("singlet still on evicting node")
	}
	if c.Stats().Forwards != 1 {
		t.Errorf("Forwards = %d, want 1", c.Stats().Forwards)
	}
}

func TestNChanceDropsDuplicates(t *testing.T) {
	_, c := newTestCache(3, 1, NChance{Recirculations: 2})
	c.Insert(0, blk(1, 0), InsertOptions{})
	c.Insert(1, blk(1, 0), InsertOptions{}) // duplicate copy on node 1
	if n := copiesOf(c, blk(1, 0)); n != 2 {
		t.Fatalf("%d copies, want 2", n)
	}
	// Evicting the duplicate on node 1 must drop, not forward.
	_, victims := c.Insert(1, blk(2, 0), InsertOptions{})
	if len(victims) != 1 || victims[0].Slot != blk(1, 0) {
		t.Fatalf("victims = %v, want dropped duplicate 1:0", victims)
	}
	if c.Stats().Forwards != 0 {
		t.Error("duplicate was forwarded")
	}
	if !c.Contains(blk(1, 0)) {
		t.Error("other copy of duplicate vanished")
	}
}

func TestNChanceRecirculationLimit(t *testing.T) {
	_, c := newTestCache(2, 1, NChance{Recirculations: 1})
	c.Insert(0, blk(1, 0), InsertOptions{})
	// First eviction forwards (hop 1) to node 1.
	c.Insert(0, blk(1, 1), InsertOptions{})
	if !c.Contains(blk(1, 0)) {
		t.Fatal("first forward failed")
	}
	// 1:0 now has 1 hop. Evicting it again must drop it.
	_, victims := c.Insert(1, blk(1, 2), InsertOptions{})
	found := false
	for _, v := range victims {
		if v.Slot == blk(1, 0) {
			found = true
		}
	}
	if !found {
		t.Errorf("recirculation-exhausted singlet not dropped; victims = %v", victims)
	}
}

func TestNChanceDirtySingletKeepsDirtyThroughForward(t *testing.T) {
	_, c := newTestCache(3, 1, NChance{Recirculations: 2})
	c.Insert(0, blk(1, 0), InsertOptions{Dirty: true})
	c.Insert(0, blk(1, 1), InsertOptions{})
	if len(c.DirtySlots()) != 1 {
		t.Error("dirty flag lost across forward")
	}
}

func TestCapacityNeverExceeded(t *testing.T) {
	for _, p := range []Policy{GlobalLRU{}, NChance{Recirculations: 2}} {
		_, c := newTestCache(3, 4, p)
		for i := 0; i < 100; i++ {
			c.Insert(blockdev.NodeID(i%3), blk(1, i), InsertOptions{})
			for n := 0; n < 3; n++ {
				if nodeLen(c, blockdev.NodeID(n)) > 4 {
					t.Fatalf("%T: node %d over capacity after insert %d", p, n, i)
				}
			}
		}
	}
}

func TestNewPanicsOnBadGeometry(t *testing.T) {
	e := sim.NewEngine(1)
	for _, g := range []struct{ n, c int }{{0, 1}, {1, 0}, {-1, 5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d) did not panic", g.n, g.c)
				}
			}()
			New(e, g.n, g.c, GlobalLRU{}, testFiles.Len())
		}()
	}
}

func TestInsertPanicsOnBadNode(t *testing.T) {
	_, c := newTestCache(2, 2, GlobalLRU{})
	defer func() {
		if recover() == nil {
			t.Error("bad node did not panic")
		}
	}()
	c.Insert(5, blk(1, 0), InsertOptions{})
}

// Property: the directory and the LRU lists agree — as many copies are
// found through the directory as the node lists hold — and capacity
// holds, under arbitrary insert/touch/drop sequences.
func TestDirectoryConsistencyProperty(t *testing.T) {
	f := func(ops []uint32) bool {
		e := sim.NewEngine(9)
		c := New(e, 4, 3, NChance{Recirculations: 2}, testFiles.Len())
		for _, op := range ops {
			node := blockdev.NodeID(op % 4)
			b := blk(int(op>>2%3), int(op>>4%32))
			switch op % 3 {
			case 0:
				c.Insert(node, b, InsertOptions{Dirty: op%5 == 0, Prefetched: op%7 == 0})
			case 1:
				use(c, node, b)
			case 2:
				c.Drop(b)
			}
		}
		listed, found := 0, 0
		for n := 0; n < 4; n++ {
			l := nodeLen(c, blockdev.NodeID(n))
			if l > 3 {
				return false
			}
			listed += l
		}
		for f := 0; f < 3; f++ {
			for i := 0; i < 32; i++ {
				found += copiesOf(c, blk(f, i))
			}
		}
		return listed == found
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestStatsCounters(t *testing.T) {
	_, c := newTestCache(1, 1, GlobalLRU{})
	c.Insert(0, blk(1, 0), InsertOptions{})
	c.Insert(0, blk(1, 1), InsertOptions{})
	if st := c.Stats(); st.Removals != 1 || nodeLen(c, 0) != 1 || !c.Contains(blk(1, 1)) {
		t.Errorf("removals %d, %d copies (holds block 1: %v); want 1, 1, true", st.Removals, nodeLen(c, 0), c.Contains(blk(1, 1)))
	}
}
