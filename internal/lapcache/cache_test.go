package lapcache

import (
	"bytes"
	"container/list"
	"fmt"
	"slices"
	"testing"

	"repro/internal/blockbuf"
	"repro/internal/blockdev"
)

func bid(f, b int) blockdev.BlockID {
	return blockdev.BlockID{File: blockdev.FileID(f), Block: blockdev.BlockNo(b)}
}

// testPool is the buffer pool for direct cache tests; mkbuf stamps a
// one-byte tag so tests can tell buffers apart.
func testPool() *blockbuf.Pool { return blockbuf.NewPool(4) }

// noWaste is the onWasted callback of caches whose test does not look
// at wasted evictions.
func noWaste(blockdev.FileID) {}

func mkbuf(p *blockbuf.Pool, tag byte) *blockbuf.Buf {
	b := p.Get()
	b.Bytes()[0] = tag
	return b
}

func TestCachePutGetEvict(t *testing.T) {
	p := testPool()
	c := newBlockCache(4, 1, noWaste) // one shard: eviction order is exact
	for i := 0; i < 4; i++ {
		c.Put(bid(1, i), mkbuf(p, byte(i)), false)
	}
	if c.Len() != 4 {
		t.Fatalf("Len = %d", c.Len())
	}
	if buf, _, ok := c.Get(bid(1, 0)); ok { // block 0 becomes MRU; block 1 is now LRU
		buf.Release()
	}
	c.Put(bid(1, 9), mkbuf(p, 9), false)
	if c.Contains(bid(1, 1)) {
		t.Error("LRU block survived eviction")
	}
	if !c.Contains(bid(1, 0)) {
		t.Error("touched block was evicted")
	}
	buf, _, ok := c.Get(bid(1, 9))
	if !ok || buf.Bytes()[0] != 9 {
		t.Error("inserted block unreadable")
	}
	buf.Release()
}

// TestCacheGetOutlivesEviction pins the zero-copy contract: a buffer
// handed out by Get stays valid (and unrecycled) even after the cache
// evicts the block, until the holder releases it.
func TestCacheGetOutlivesEviction(t *testing.T) {
	p := testPool()
	p.SetPoison(true)
	c := newBlockCache(1, 1, noWaste)
	c.Put(bid(1, 0), mkbuf(p, 0xAA), false)
	held, _, ok := c.Get(bid(1, 0))
	if !ok {
		t.Fatal("miss on inserted block")
	}
	c.Put(bid(1, 1), mkbuf(p, 0xBB), false) // evicts block 0
	if held.Bytes()[0] != 0xAA {
		t.Errorf("held buffer mutated after eviction: %#x", held.Bytes()[0])
	}
	held.Release() // the cache dropped its reference: this one is the last
	if live := p.Live(); live != 1 {
		t.Errorf("live = %d after releasing the evicted block, want 1 (block 1 only)", live)
	}
}

func TestCachePrefetchedFlagLifecycle(t *testing.T) {
	p := testPool()
	c := newBlockCache(8, 1, noWaste)
	rel := func(buf *blockbuf.Buf, wasPf, ok bool) bool {
		if ok {
			buf.Release()
		}
		return wasPf
	}
	c.Put(bid(1, 0), mkbuf(p, 0), true)
	if c.UnusedPrefetched() != 1 {
		t.Fatalf("UnusedPrefetched = %d", c.UnusedPrefetched())
	}
	// Contains must not consume the flag.
	c.Contains(bid(1, 0))
	if !rel(c.Get(bid(1, 0))) {
		t.Error("first Get did not report the prefetched flag")
	}
	if rel(c.Get(bid(1, 0))) {
		t.Error("flag survived the first touch")
	}
	// A demand overwrite clears the flag; a speculative one keeps it.
	c.Put(bid(1, 1), mkbuf(p, 1), true)
	c.Put(bid(1, 1), mkbuf(p, 1), true)
	if c.UnusedPrefetched() != 1 {
		t.Error("speculative overwrite cleared the flag")
	}
	if !c.Put(bid(1, 1), mkbuf(p, 1), false) {
		t.Error("demand overwrite of a flagged block not reported as its first touch")
	}
	if c.UnusedPrefetched() != 0 {
		t.Error("demand overwrite kept the flag")
	}
	if c.Put(bid(1, 1), mkbuf(p, 1), false) {
		t.Error("second demand overwrite reported another first touch")
	}
}

func TestCacheWastedEvictionCount(t *testing.T) {
	p := testPool()
	wasted := 0
	c := newBlockCache(2, 1, func(f blockdev.FileID) {
		if f != 1 {
			t.Errorf("wasted eviction attributed to file %d, want 1", f)
		}
		wasted++
	})
	c.Put(bid(1, 0), mkbuf(p, 0), true)
	c.Put(bid(1, 1), mkbuf(p, 1), false)
	c.Put(bid(2, 2), mkbuf(p, 2), false) // evicts untouched speculative block 0
	if wasted != 1 {
		t.Errorf("wasted = %d, want 1", wasted)
	}
	c.Put(bid(2, 3), mkbuf(p, 3), false) // evicts demand block 1
	if wasted != 1 {
		t.Errorf("wasted = %d after a demand eviction, want still 1", wasted)
	}
}

func TestCacheShardingCapacity(t *testing.T) {
	for _, tc := range []struct{ capacity, shards, wantShards int }{
		{100, 8, 8},
		{100, 7, 8}, // rounded up
		{3, 8, 2},   // never more shards than capacity allows
		{1, 16, 1},
		{64, 1, 1},
	} {
		c := newBlockCache(tc.capacity, tc.shards, noWaste)
		if len(c.shards) != tc.wantShards {
			t.Errorf("cap=%d shards=%d: got %d shards, want %d",
				tc.capacity, tc.shards, len(c.shards), tc.wantShards)
		}
		total := 0
		for i := range c.shards {
			total += c.shards[i].cap
		}
		if total != tc.capacity {
			t.Errorf("cap=%d shards=%d: shard capacities sum to %d",
				tc.capacity, tc.shards, total)
		}
	}
}

func TestCacheNeverExceedsCapacity(t *testing.T) {
	const capacity = 32
	p := testPool()
	p.SetPoison(true) // evicted buffers must recycle cleanly
	c := newBlockCache(capacity, 4, noWaste)
	for i := 0; i < 500; i++ {
		c.Put(bid(i%7, i), p.Get(), i%3 == 0)
	}
	if c.Len() > capacity {
		t.Errorf("Len = %d exceeds capacity %d", c.Len(), capacity)
	}
	// Churn recycled the evicted buffers instead of allocating 500.
	// Under -race sync.Pool drops Puts at random, so only the plain
	// run holds the tight allocation bound.
	limit := uint64(capacity + 8)
	if raceEnabled {
		limit = 400
	}
	if allocs, recycles := p.Stats(); allocs > limit || recycles == 0 {
		t.Errorf("pool stats: %d allocs / %d recycles over 500 churning puts", allocs, recycles)
	}
}

func TestMemStoreRoundTrip(t *testing.T) {
	s := NewMemStore(16, 0)
	buf := make([]byte, 16)
	if err := s.ReadBlock(bid(1, 2), buf); err != nil {
		t.Fatalf("read: %v", err)
	}
	want := make([]byte, 16)
	FillPattern(bid(1, 2), want)
	if !bytes.Equal(buf, want) {
		t.Error("unwritten block did not read as fill pattern")
	}
	payload := bytes.Repeat([]byte{0x5A}, 16)
	if err := s.WriteBlock(bid(1, 2), payload); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := s.ReadBlock(bid(1, 2), buf); err != nil {
		t.Fatalf("reread: %v", err)
	}
	if !bytes.Equal(buf, payload) {
		t.Error("written block did not read back")
	}
}

func TestFileStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFileStore(dir, 32)
	if err != nil {
		t.Fatalf("NewFileStore: %v", err)
	}
	defer s.Close()

	payload := bytes.Repeat([]byte{0xC3}, 32)
	if err := s.WriteBlock(bid(4, 5), payload); err != nil {
		t.Fatalf("write: %v", err)
	}
	buf := make([]byte, 32)
	if err := s.ReadBlock(bid(4, 5), buf); err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(buf, payload) {
		t.Error("written block did not read back")
	}
	// Reads past EOF and of untouched files are zero-filled.
	if err := s.ReadBlock(bid(4, 100), buf); err != nil {
		t.Fatalf("past-EOF read: %v", err)
	}
	if !bytes.Equal(buf, make([]byte, 32)) {
		t.Error("past-EOF read not zero-filled")
	}
	if err := s.ReadBlock(bid(9, 0), buf); err != nil {
		t.Fatalf("fresh-file read: %v", err)
	}
	if !bytes.Equal(buf, make([]byte, 32)) {
		t.Error("fresh-file read not zero-filled")
	}
	// A block that ends past EOF keeps its data and zero-fills the rest.
	if err := s.WriteBlock(bid(6, 0), payload[:20]); err != nil {
		t.Fatalf("short write: %v", err)
	}
	if err := s.ReadBlock(bid(6, 0), buf); err != nil {
		t.Fatalf("short-file read: %v", err)
	}
	if !bytes.Equal(buf, append(payload[:20:20], make([]byte, 12)...)) {
		t.Errorf("short-file read = %x, want the 20 written bytes then zeroes", buf)
	}
}

// TestFileStoreReadErrorIsReturned: only the end of a file reads as
// zeroes; any other read error reaches the caller instead of passing
// as data.
func TestFileStoreReadErrorIsReturned(t *testing.T) {
	s, err := NewFileStore(t.TempDir(), 32)
	if err != nil {
		t.Fatalf("NewFileStore: %v", err)
	}
	defer s.Close()
	if err := s.WriteBlock(bid(4, 5), bytes.Repeat([]byte{0xC3}, 32)); err != nil {
		t.Fatalf("write: %v", err)
	}
	// Close the handle the store keeps, so its next ReadAt fails.
	s.files[4].Close()
	buf := bytes.Repeat([]byte{0xFF}, 32)
	if err := s.ReadBlock(bid(4, 5), buf); err == nil {
		t.Errorf("read through a closed handle returned nil error and %x", buf)
	}
}

func TestFillPatternDistinguishesBlocks(t *testing.T) {
	a, b := make([]byte, 64), make([]byte, 64)
	seen := make(map[string]string)
	for f := 0; f < 4; f++ {
		for blk := 0; blk < 4; blk++ {
			FillPattern(bid(f, blk), a)
			key := string(a)
			id := fmt.Sprintf("%d:%d", f, blk)
			if prev, dup := seen[key]; dup {
				t.Errorf("blocks %s and %s share a fill pattern", prev, id)
			}
			seen[key] = id
		}
	}
	FillPattern(bid(1, 2), a)
	FillPattern(bid(1, 2), b)
	if !bytes.Equal(a, b) {
		t.Error("fill pattern not deterministic")
	}
}

// TestFillPatternMatchesBytewise holds the doubling fill to the loop it
// replaced, stamp byte i%8 at byte i, at lengths around and between
// multiples of the stamp and at a full block.
func TestFillPatternMatchesBytewise(t *testing.T) {
	for _, b := range []blockdev.BlockID{bid(0, 0), bid(3, 7), {File: -2, Block: 1<<31 - 1}, {File: 1 << 20, Block: 1 << 24}} {
		for _, n := range []int{0, 1, 7, 8, 9, 15, 16, 17, 100, 4095, 8192} {
			stamp := [8]byte{
				byte(b.File), byte(b.File >> 8), byte(b.File >> 16), byte(b.File >> 24),
				byte(b.Block), byte(b.Block >> 8), byte(b.Block >> 16), byte(b.Block >> 24),
			}
			want := make([]byte, n)
			for i := range want {
				want[i] = stamp[i%len(stamp)]
			}
			got := bytes.Repeat([]byte{0xAA}, n)
			FillPattern(b, got)
			if !bytes.Equal(got, want) {
				t.Errorf("block %v, %d bytes: FillPattern differs from the byte-wise fill", b, n)
			}
		}
	}
}

// refCache is the map + list shard the slab replaced, kept as the
// reference FuzzBlockCache holds it to: one shard of cap blocks, its
// wasted evictions and its eviction count.
type refCache struct {
	cap       int
	entries   map[blockdev.BlockID]*list.Element // each holds a *refBlock
	order     *list.List                         // front = least recently used
	wasted    []blockdev.FileID
	evictions uint64
}

// refBlock is a cached block as the reference sees it; tag is the
// first byte of the buffer the cache should hold.
type refBlock struct {
	id         blockdev.BlockID
	tag        byte
	prefetched bool
}

func (r *refCache) put(b blockdev.BlockID, tag byte, prefetched, rearm bool) (firstTouch bool) {
	if el := r.entries[b]; el != nil {
		e := el.Value.(*refBlock)
		e.tag = tag
		if rearm {
			e.prefetched = prefetched
		} else if !prefetched {
			firstTouch, e.prefetched = e.prefetched, false
		}
		r.order.MoveToBack(el)
		return firstTouch
	}
	if r.order.Len() >= r.cap {
		victim := r.order.Remove(r.order.Front()).(*refBlock)
		delete(r.entries, victim.id)
		r.evictions++
		if victim.prefetched {
			r.wasted = append(r.wasted, victim.id.File)
		}
	}
	r.entries[b] = r.order.PushBack(&refBlock{id: b, tag: tag, prefetched: prefetched})
	return false
}

func (r *refCache) get(b blockdev.BlockID) (tag byte, wasPrefetched, ok bool) {
	el := r.entries[b]
	if el == nil {
		return 0, false, false
	}
	r.order.MoveToBack(el)
	e := el.Value.(*refBlock)
	wasPrefetched, e.prefetched = e.prefetched, false
	return e.tag, wasPrefetched, true
}

func (r *refCache) clear() {
	r.evictions += uint64(r.order.Len())
	r.order.Init()
	clear(r.entries)
}

// FuzzBlockCache drives a one-shard blockCache and the reference with
// one fuzzed sequence of Put (demand or speculative), Preinstall
// (either flag), Get, Contains and Clear calls, and compares,
// after every call, the whole LRU order with each entry's buffer and
// flag, Len, what the call returned, the files reported wasted and the
// eviction count; at the end every buffer must be back in the pool.
// The first byte picks the cap, 1 to 16; then each call takes two
// bytes, the call and the block (24 blocks over three files).
func FuzzBlockCache(f *testing.F) {
	const (
		putDemand = iota
		putSpeculative
		preinstallDemand
		preinstallSpeculative
		get
		contains
		calls
	)
	const clearCall = 31 // of a call byte's value mod 32; the others are taken mod calls
	seq := func(capacity byte, ops ...byte) []byte { return append([]byte{capacity - 1}, ops...) }
	// Three blocks fill cap 3; a Contains must not save the oldest from
	// the next insert; a speculative Put over a demand block must not arm it,
	// and over a speculative one must not disarm it.
	f.Add(seq(3,
		putDemand, 0, putSpeculative, 1, putDemand, 2, contains, 0, contains, 1, putDemand, 3,
		putSpeculative, 2, get, 2, putSpeculative, 1, putDemand, 4, get, 1,
		preinstallSpeculative, 3, putSpeculative, 3, putDemand, 3, preinstallDemand, 5, putDemand, 6,
		clearCall, 0, putSpeculative, 7, putDemand, 8))
	f.Add(seq(1, putSpeculative, 0, putSpeculative, 0, get, 0, putDemand, 1, contains, 1, clearCall, 0))
	// Long runs at caps 2, 5 and 16.
	for _, capacity := range []byte{2, 5, 16} {
		s, x := seq(capacity), uint32(capacity)
		for range 300 {
			x = x*1664525 + 1013904223
			s = append(s, byte(x>>24), byte(x>>8))
		}
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		p, capacity := testPool(), 1+int(ops[0]%16)
		var wasted []blockdev.FileID
		c := newBlockCache(capacity, 1, func(f blockdev.FileID) { wasted = append(wasted, f) })
		ref := refCache{cap: capacity, entries: make(map[blockdev.BlockID]*list.Element), order: list.New()}
		sh := &c.shards[0]
		for i := 1; i+1 < len(ops); i += 2 {
			b := bid(int(ops[i+1]%3), int(ops[i+1]/3%8))
			tag := byte(i)
			op := ops[i] % 32
			if op != clearCall {
				op %= calls
			}
			switch op {
			case putDemand, putSpeculative:
				spec := op == putSpeculative
				if got, want := c.Put(b, mkbuf(p, tag), spec), ref.put(b, tag, spec, false); got != want {
					t.Fatalf("call %d: Put(%v, %v) firstTouch %v, reference %v", i, b, spec, got, want)
				}
			case preinstallDemand, preinstallSpeculative:
				spec := op == preinstallSpeculative
				c.Preinstall(b, mkbuf(p, tag), spec)
				ref.put(b, tag, spec, true)
			case get:
				buf, wasPf, ok := c.Get(b)
				wantTag, wantPf, wantOK := ref.get(b)
				if ok != wantOK || wasPf != wantPf || ok && buf.Bytes()[0] != wantTag {
					t.Fatalf("call %d: Get(%v) ok %v prefetched %v, reference %v %v", i, b, ok, wasPf, wantOK, wantPf)
				}
				if ok {
					buf.Release()
				}
			case contains:
				if got, want := c.Contains(b), ref.entries[b] != nil; got != want {
					t.Fatalf("call %d: Contains(%v) %v, reference %v", i, b, got, want)
				}
			case clearCall:
				if got, want := c.Clear(), ref.order.Len(); got != want {
					t.Fatalf("call %d: Clear dropped %d, reference %d", i, got, want)
				}
				ref.clear()
			}
			var got, want []refBlock
			prev := int32(none)
			for j := sh.head; j != none && len(got) <= sh.cap; j = sh.slab[j].next {
				e := sh.slab[j]
				if e.prev != prev || sh.index[e.id] != j {
					t.Fatalf("call %d: entry %d (%v) has prev %d and index %d, want %d and %d", i, j, e.id, e.prev, sh.index[e.id], prev, j)
				}
				got = append(got, refBlock{id: e.id, tag: e.buf.Bytes()[0], prefetched: e.prefetched})
				prev = j
			}
			for el := ref.order.Front(); el != nil; el = el.Next() {
				want = append(want, *el.Value.(*refBlock))
			}
			if !slices.Equal(got, want) || sh.tail != prev || len(sh.index) != len(want) || c.Len() != len(want) {
				t.Fatalf("call %d: LRU order %v (Len %d, index %d), reference %v", i, got, c.Len(), len(sh.index), want)
			}
			if !slices.Equal(wasted, ref.wasted) {
				t.Fatalf("call %d: wasted files %v, reference %v", i, wasted, ref.wasted)
			}
			if got, want := c.evictions.Load(), ref.evictions; got != want {
				t.Fatalf("call %d: %d evictions, reference %d", i, got, want)
			}
		}
		c.Clear()
		if live := p.Live(); live != 0 {
			t.Errorf("%d buffers still live after Clear", live)
		}
	})
}
