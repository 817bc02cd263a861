package lapcache

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/blockbuf"
	"repro/internal/blockdev"
	"repro/internal/lrulist"
)

// centry is one cached block. It lives on exactly one shard's LRU
// list; the intrusive links come from the same package the simulator's
// cooperative cache uses. The cache holds exactly one reference to
// buf for as long as the entry exists.
type centry struct {
	id  blockdev.BlockID
	buf *blockbuf.Buf
	// prefetched marks a block brought in speculatively and not yet
	// touched by any user request — the runtime image of
	// cachesim.Copy.Prefetched, and the flag behind the timely/wasted
	// classification.
	prefetched bool
	links      lrulist.Links[centry]
}

// cacheShard is one mutex-striped slice of the block cache.
type cacheShard struct {
	mu     sync.Mutex
	blocks map[blockdev.BlockID]*centry
	lru    lrulist.List[centry]
	cap    int
}

// blockCache is the engine's sharded block cache: the runtime
// counterpart of cachesim.Cache, with the global directory replaced by
// hash sharding (one copy per block machine-wide — the engine is one
// process) and the simulator's virtual-time recency replaced by list
// order under per-shard mutexes.
//
// Buffer ownership: Put and Preinstall take ownership of one
// reference to the buffer they are handed (eviction and overwrite
// release it); Get hands the caller a freshly retained reference the
// caller must Release.
type blockCache struct {
	shards []cacheShard
	mask   uint32
	// entries recycles centry shells between eviction and insertion, so
	// a steady-state miss (evict one, insert one) allocates nothing.
	entries sync.Pool
	// evictions is the drivers' core.Env eviction count: blocks that left
	// the cache (Put, Clear) and fetches that never landed (Engine.fill).
	evictions atomic.Uint64
	// onWasted is told the owning file of every wasted eviction (a
	// speculative block dropped untouched) — the one way an eviction is
	// reported, per victim because victims routinely belong to other
	// files than the inserted block. Called outside all shard locks.
	onWasted func(f blockdev.FileID)
}

// newBlockCache builds a cache of capacity blocks striped over nShards
// shards (rounded up to a power of two so shard selection is a mask).
func newBlockCache(capacity, nShards int, onWasted func(f blockdev.FileID)) *blockCache {
	if capacity <= 0 {
		panic(fmt.Sprintf("lapcache: invalid cache capacity %d", capacity))
	}
	if nShards <= 0 {
		nShards = 1
	}
	pow := 1
	for pow < nShards {
		pow <<= 1
	}
	if pow > capacity {
		// Never let rounding strand a shard with zero capacity.
		pow = 1
		for pow*2 <= capacity && pow*2 <= nShards {
			pow <<= 1
		}
	}
	c := &blockCache{shards: make([]cacheShard, pow), mask: uint32(pow - 1), onWasted: onWasted}
	per := capacity / pow
	extra := capacity % pow
	for i := range c.shards {
		sh := &c.shards[i]
		sh.blocks = make(map[blockdev.BlockID]*centry)
		sh.lru = lrulist.New[centry](func(e *centry) *lrulist.Links[centry] { return &e.links })
		sh.cap = per
		if i < extra {
			sh.cap++
		}
	}
	return c
}

// shardFor hashes a block to its shard. File and block number both
// feed the hash so one hot file stripes across every shard.
func (c *blockCache) shardFor(b blockdev.BlockID) *cacheShard {
	h := uint32(b.File)*2654435761 ^ uint32(b.Block)*0x9e3779b9
	h ^= h >> 16
	return &c.shards[h&c.mask]
}

// Get returns a retained reference to the cached buffer for b,
// touching recency; the caller must Release it. wasPrefetched reports
// that this access is the first user touch of a speculative block — a
// timely prefetch; the flag is cleared, as in the simulator's cache.
func (c *blockCache) Get(b blockdev.BlockID) (buf *blockbuf.Buf, wasPrefetched, ok bool) {
	sh := c.shardFor(b)
	sh.mu.Lock()
	e, found := sh.blocks[b]
	if !found {
		sh.mu.Unlock()
		return nil, false, false
	}
	sh.lru.Touch(e)
	wasPrefetched = e.prefetched
	e.prefetched = false
	// Retain under the shard lock: the entry's own reference keeps the
	// count >= 1 here, so the new reference is race-free against a
	// concurrent eviction's Release.
	buf = e.buf.Retain()
	sh.mu.Unlock()
	return buf, wasPrefetched, true
}

// Peek returns a retained reference to the cached buffer for b without
// touching recency or the prefetched flag: a read on nobody's behalf
// (the rebalancing handoff) must neither promote a block nor decide a
// prefetch's fate. The caller must Release it.
func (c *blockCache) Peek(b blockdev.BlockID) (buf *blockbuf.Buf, ok bool) {
	sh := c.shardFor(b)
	sh.mu.Lock()
	if e, found := sh.blocks[b]; found {
		buf, ok = e.buf.Retain(), true
	}
	sh.mu.Unlock()
	return buf, ok
}

// Contains reports whether b is cached, without touching recency (the
// prefetch driver's visibility check must not promote blocks).
func (c *blockCache) Contains(b blockdev.BlockID) bool {
	sh := c.shardFor(b)
	sh.mu.Lock()
	_, ok := sh.blocks[b]
	sh.mu.Unlock()
	return ok
}

// Put inserts (or overwrites) b, taking ownership of one reference to
// buf and evicting from the shard's LRU end as needed (each victim's
// reference is released; each one that was speculative and never
// touched is reported to onWasted). Inserting over an existing entry
// releases the displaced buffer, refreshes recency and, like the
// simulator's insert-merge, clears the prefetched flag only when the
// new copy is a demand fill; firstTouch reports that it did — the
// demand copy replaced a speculative block nobody had touched yet.
func (c *blockCache) Put(b blockdev.BlockID, buf *blockbuf.Buf, prefetched bool) (firstTouch bool) {
	sh := c.shardFor(b)
	sh.mu.Lock()
	if e, ok := sh.blocks[b]; ok {
		old := e.buf
		e.buf = buf
		if !prefetched {
			firstTouch = e.prefetched
			e.prefetched = false
		}
		sh.lru.Touch(e)
		sh.mu.Unlock()
		old.Release()
		return firstTouch
	}
	// One insert evicts at most one block in steady state; the stack
	// array keeps the common case allocation-free (append spills to the
	// heap only in the never-expected many-victim case).
	var freedArr [4]*blockbuf.Buf
	freed := freedArr[:0]
	var wastedArr [4]blockdev.FileID
	wasted := wastedArr[:0]
	for sh.lru.Len() >= sh.cap {
		victim := sh.lru.Front()
		if victim == nil {
			break
		}
		sh.lru.Remove(victim) // clears the intrusive links
		delete(sh.blocks, victim.id)
		c.evictions.Add(1)
		if victim.prefetched {
			wasted = append(wasted, victim.id.File)
		}
		freed = append(freed, victim.buf)
		victim.buf = nil
		c.entries.Put(victim)
	}
	e, _ := c.entries.Get().(*centry)
	if e == nil {
		e = &centry{}
	}
	e.id, e.buf, e.prefetched = b, buf, prefetched
	sh.blocks[b] = e
	sh.lru.PushBack(e)
	sh.mu.Unlock()
	// Release outside the shard lock: a final Release pushes into the
	// buffer pool, which there is no reason to do under the stripe.
	for _, f := range freed {
		f.Release()
	}
	for _, f := range wasted {
		c.onWasted(f)
	}
	return false
}

// Preinstall inserts b with an explicit prefetched flag, overriding
// the merge rule that an overwrite never re-arms the flag; the
// engine's Preload uses it to stage cache states for benchmarks. Like
// Put it takes ownership of one reference to buf.
func (c *blockCache) Preinstall(b blockdev.BlockID, buf *blockbuf.Buf, prefetched bool) {
	sh := c.shardFor(b)
	sh.mu.Lock()
	if e, ok := sh.blocks[b]; ok {
		old := e.buf
		e.buf = buf
		e.prefetched = prefetched
		sh.lru.Touch(e)
		sh.mu.Unlock()
		old.Release()
		return
	}
	sh.mu.Unlock()
	c.Put(b, buf, prefetched)
}

// Len returns the number of cached blocks.
func (c *blockCache) Len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += sh.lru.Len()
		sh.mu.Unlock()
	}
	return n
}

// Clear drops every cached block, releasing the cache's reference to
// each buffer, and returns how many entries were dropped. It is the
// teardown half of leak accounting: after Shutdown+Clear the buffer
// pool's Live count should equal exactly the references still held by
// in-flight callers (zero once they finish).
func (c *blockCache) Clear() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		var freed []*blockbuf.Buf
		for e := sh.lru.Front(); e != nil; e = sh.lru.Front() {
			sh.lru.Remove(e)
			delete(sh.blocks, e.id)
			c.evictions.Add(1)
			freed = append(freed, e.buf)
			e.buf = nil
			c.entries.Put(e)
			n++
		}
		sh.mu.Unlock()
		for _, f := range freed {
			f.Release()
		}
	}
	return n
}

// BlockIDs snapshots every cached block's identity, shard by shard.
// The snapshot is taken under each shard's lock in turn, so it is a
// consistent picture per shard but not across shards — fine for the
// handoff scan, which tolerates blocks appearing or evicting while it
// walks.
func (c *blockCache) BlockIDs() []blockdev.BlockID {
	out := make([]blockdev.BlockID, 0, c.Len())
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for id := range sh.blocks {
			out = append(out, id)
		}
		sh.mu.Unlock()
	}
	return out
}

// UnusedPrefetched counts cached blocks still flagged speculative;
// end-of-run accounting adds them to the wasted count, mirroring
// cachesim.UnusedPrefetchedCopies.
func (c *blockCache) UnusedPrefetched() uint64 {
	var n uint64
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for _, e := range sh.blocks {
			if e.prefetched {
				n++
			}
		}
		sh.mu.Unlock()
	}
	return n
}
