package lapcache

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/blockbuf"
	"repro/internal/blockdev"
)

// none is the slab index of no entry: the end of a shard's list.
const none = -1

// centry is one cached block, a record in its shard's slab. The cache
// holds exactly one reference to buf for as long as the entry exists.
type centry struct {
	id  blockdev.BlockID
	buf *blockbuf.Buf
	// prefetched marks a block brought in speculatively and not yet
	// touched by any user request — the runtime image of
	// cachesim.Copy.Prefetched, and the flag behind the timely/wasted
	// classification.
	prefetched bool
	// prev and next link the shard's recency list by slab index.
	prev, next int32
}

// cacheShard is one mutex-striped slice of the block cache. Its slab
// appends until cap; from then on an insert reuses the least recently
// used entry's record in place, so an entry never moves and there is
// no free list. Neither the index's key nor its value holds a pointer,
// so the garbage collector does not scan it.
type cacheShard struct {
	mu    sync.Mutex
	slab  []centry
	index map[blockdev.BlockID]int32
	// head and tail are the least and most recently used entries.
	head, tail int32
	cap        int
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
		sh.cap = per
		if i < extra {
			sh.cap++
		}
		sh.slab = make([]centry, 0, sh.cap)
		sh.index = make(map[blockdev.BlockID]int32, sh.cap)
		sh.head, sh.tail = none, none
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

// pushBack appends slab entry i as the most recently used.
func (sh *cacheShard) pushBack(i int32) {
	sh.slab[i].prev, sh.slab[i].next = sh.tail, none
	if sh.tail != none {
		sh.slab[sh.tail].next = i
	} else {
		sh.head = i
	}
	sh.tail = i
}

// unlink removes slab entry i from the recency list.
func (sh *cacheShard) unlink(i int32) {
	e := &sh.slab[i]
	if e.prev != none {
		sh.slab[e.prev].next = e.next
	} else {
		sh.head = e.next
	}
	if e.next != none {
		sh.slab[e.next].prev = e.prev
	} else {
		sh.tail = e.prev
	}
}

// touch moves slab entry i to the most recently used position.
func (sh *cacheShard) touch(i int32) {
	if sh.tail != i {
		sh.unlink(i)
		sh.pushBack(i)
	}
}

// Get returns a retained reference to the cached buffer for b,
// touching recency; the caller must Release it. wasPrefetched reports
// that this access is the first user touch of a speculative block — a
// timely prefetch; the flag is cleared, as in the simulator's cache.
func (c *blockCache) Get(b blockdev.BlockID) (buf *blockbuf.Buf, wasPrefetched, ok bool) {
	sh := c.shardFor(b)
	sh.mu.Lock()
	i, found := sh.index[b]
	if !found {
		sh.mu.Unlock()
		return nil, false, false
	}
	sh.touch(i)
	e := &sh.slab[i]
	wasPrefetched = e.prefetched
	e.prefetched = false
	// Retain under the shard lock: the entry's own reference keeps the
	// count >= 1 here, so the new reference is race-free against a
	// concurrent eviction's Release.
	buf = e.buf.Retain()
	sh.mu.Unlock()
	return buf, wasPrefetched, true
}

// Contains reports whether b is cached, without touching recency (the
// prefetch driver's visibility check must not promote blocks).
func (c *blockCache) Contains(b blockdev.BlockID) bool {
	sh := c.shardFor(b)
	sh.mu.Lock()
	_, ok := sh.index[b]
	sh.mu.Unlock()
	return ok
}

// Put inserts (or overwrites) b, taking ownership of one reference to
// buf and evicting the shard's least recently used block when it is
// full (the victim's reference is released; a victim that was
// speculative and never touched is reported to onWasted). Inserting
// over an existing entry releases the displaced buffer, refreshes
// recency and, like the simulator's insert-merge, clears the
// prefetched flag only when the new copy is a demand fill; firstTouch
// reports that it did — the demand copy replaced a speculative block
// nobody had touched yet.
func (c *blockCache) Put(b blockdev.BlockID, buf *blockbuf.Buf, prefetched bool) (firstTouch bool) {
	return c.insert(b, buf, prefetched, false)
}

// Preinstall inserts b with an explicit prefetched flag, overriding
// the merge rule that an overwrite never re-arms the flag; the
// engine's Preload uses it to stage cache states for benchmarks. Like
// Put it takes ownership of one reference to buf.
func (c *blockCache) Preinstall(b blockdev.BlockID, buf *blockbuf.Buf, prefetched bool) {
	c.insert(b, buf, prefetched, true)
}

// insert is Put's and Preinstall's one body, under one hold of the
// shard lock; rearm makes an overwrite set the flag to prefetched
// instead of merging it.
func (c *blockCache) insert(b blockdev.BlockID, buf *blockbuf.Buf, prefetched, rearm bool) (firstTouch bool) {
	sh := c.shardFor(b)
	sh.mu.Lock()
	if i, ok := sh.index[b]; ok {
		e := &sh.slab[i]
		old := e.buf
		e.buf = buf
		if rearm {
			e.prefetched = prefetched
		} else if !prefetched {
			firstTouch = e.prefetched
			e.prefetched = false
		}
		sh.touch(i)
		sh.mu.Unlock()
		old.Release()
		return firstTouch
	}
	var victim centry
	i := int32(len(sh.slab))
	if len(sh.slab) < sh.cap {
		sh.slab = append(sh.slab, centry{})
	} else {
		i = sh.head
		victim = sh.slab[i]
		sh.unlink(i)
		delete(sh.index, victim.id)
		c.evictions.Add(1)
	}
	sh.slab[i] = centry{id: b, buf: buf, prefetched: prefetched}
	sh.index[b] = i
	sh.pushBack(i)
	sh.mu.Unlock()
	// Release outside the shard lock: a final Release pushes into the
	// buffer pool, which there is no reason to do under the stripe.
	if victim.buf != nil {
		victim.buf.Release()
		if victim.prefetched {
			c.onWasted(victim.id.File)
		}
	}
	return false
}

// Len returns the number of cached blocks.
func (c *blockCache) Len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += len(sh.slab)
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
		freed := make([]*blockbuf.Buf, len(sh.slab))
		for j := range sh.slab {
			freed[j] = sh.slab[j].buf
		}
		c.evictions.Add(uint64(len(sh.slab)))
		n += len(sh.slab)
		clear(sh.slab)
		sh.slab = sh.slab[:0]
		clear(sh.index)
		sh.head, sh.tail = none, none
		sh.mu.Unlock()
		for _, f := range freed {
			f.Release()
		}
	}
	return n
}

// UnusedPrefetched counts cached blocks still flagged speculative;
// end-of-run accounting adds them to the wasted count, mirroring
// cachesim.UnusedPrefetchedCopies.
func (c *blockCache) UnusedPrefetched() uint64 {
	var n uint64
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for j := range sh.slab {
			if sh.slab[j].prefetched {
				n++
			}
		}
		sh.mu.Unlock()
	}
	return n
}
