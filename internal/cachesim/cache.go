// Package cachesim implements the cooperative-cache substrate both
// file systems run on: per-node buffer pools holding file blocks, a
// global directory locating every cached copy, LRU bookkeeping, dirty
// blocks with periodic fault-tolerance write-back, and two replacement
// managers — a globally managed LRU (PAFS-style, §4) and per-node LRU
// with N-chance singlet forwarding (xFS-style, after Dahlin et al.).
//
// The state is flat: every copy lives in one slab, which grows a record
// at a time as copies are placed, up to one record per buffer of the
// machine; the recency lists and the directory link copies by slab
// index; and blocks are
// addressed by their slot in the cell's blockdev.Numbering, in every
// call and every record, so the directory and the dirty set are
// tables, not maps, and the cache never looks a block up. Nothing here holds
// a pointer that an insert, an eviction or a touch would move.
package cachesim

import (
	"fmt"

	"repro/internal/blockdev"
	"repro/internal/sim"
)

// Copy is one cached copy of a block on one node: a record in the
// cache's slab, linked by slab index into its node's recency list, the
// machine-wide recency list and its block's directory entry.
type Copy struct {
	Slot int32 // the block's slot in the numbering
	Node blockdev.NodeID
	// Dirty marks data newer than the disk image.
	Dirty bool
	// Prefetched marks a copy brought in speculatively and not yet
	// referenced by any user request.
	Prefetched bool
	// Recirculated counts N-chance forwarding hops (xFS policy).
	Recirculated int32

	self  int32   // this record's slab index
	links [3]link // the copy's place on each of its lists, by list kind
}

// The lists a copy is on, indexing Copy.links.
const (
	nodeList = iota // its node's recency list
	globList        // the machine-wide recency list
	dirList         // its block's directory entry
)

// none is the slab index of no copy: the end of a list.
const none = -1

// link is a copy's place on one list: its neighbours' slab indices.
type link struct{ prev, next int32 }

// list is a doubly linked list of slab indices. A recency list runs
// from least to most recently used; a directory entry runs in the
// order Find serves from.
type list struct{ head, tail, len int32 }

var emptyList = list{head: none, tail: none}

// Victim is an evicted copy the caller must handle: if Dirty, the
// block's contents must be written to disk before the buffer is
// reused.
type Victim struct {
	Slot  int32
	Dirty bool
	// WasUnusedPrefetch marks a speculative block evicted before any
	// user request touched it — a wasted prefetch.
	WasUnusedPrefetch bool
}

// Stats aggregates cache-level counters. A prefetched copy's fate is
// not counted here: the cache signals it (OnPrefetchUsed,
// Victim.WasUnusedPrefetch) and the file system books it on the file's
// prefetch window.
type Stats struct {
	Forwards uint64 // N-chance singlet forwards
	Removals uint64 // copies that left a pool, for any reason: the core.Env eviction count
}

// Cache is the cooperative cache: per-node pools plus the global
// directory.
type Cache struct {
	perNode int32 // capacity per node, in blocks
	// copies is the slab, at most one record per buffer of the
	// machine; free holds the indices of the records a copy left.
	copies []Copy
	free   []int32
	nodes  []list // each node's copies, by recency
	glob   list   // every copy, by recency; GlobalLRU evicts from it
	dir    []list // by slot: the block's copies
	dirty  []bool // by slot: the block has a dirty copy

	policy    Policy
	rng       *sim.RNG
	stats     Stats
	scanStart int // rotating start for free-buffer scans

	// The buffers Insert returns its victims in and DirtySlots its
	// slots, reused from call to call.
	victims    []Victim
	dirtyOrder []int32

	// OnPrefetchUsed, if set, fires with the block's slot when a user
	// request first touches a prefetched copy — the moment a prefetch
	// is known to have been timely. Observation only: the hook must not
	// mutate the cache.
	OnPrefetchUsed func(slot int32)
}

// Policy chooses how room is made when a node's pool is full.
type Policy interface {
	// MakeRoom frees one buffer so that a new block can be placed
	// "for" node pref. It returns the node that now has a free buffer
	// and appends any evicted blocks to out. The returned slice is the
	// updated out.
	MakeRoom(c *Cache, pref blockdev.NodeID, out []Victim) (blockdev.NodeID, []Victim)
}

// New constructs a cache of nNodes pools with perNode blocks each over
// slots slots (a numbering's Len), managed by the given policy. The RNG
// is split from the engine's stream (N-chance forwarding picks random
// target nodes).
func New(e *sim.Engine, nNodes, perNode int, policy Policy, slots int) *Cache {
	if nNodes <= 0 || perNode <= 0 {
		panic(fmt.Sprintf("cachesim: invalid geometry %d nodes x %d blocks", nNodes, perNode))
	}
	c := &Cache{
		perNode: int32(perNode),
		nodes:   make([]list, nNodes),
		glob:    emptyList,
		dir:     make([]list, slots),
		dirty:   make([]bool, slots),
		policy:  policy,
		rng:     e.RNG().Split(),
	}
	for i := range c.nodes {
		c.nodes[i] = emptyList
	}
	for i := range c.dir {
		c.dir[i] = emptyList
	}
	return c
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats { return c.stats }

// Contains reports whether any copy of the block in slot is cached.
func (c *Cache) Contains(slot int32) bool { return c.dir[slot].len > 0 }

// ContainsOn reports whether node n holds a copy of the block in slot.
func (c *Cache) ContainsOn(n blockdev.NodeID, slot int32) bool {
	return c.findOn(n, slot) != none
}

// Find returns the first copy in directory order of the block in slot
// — the holder a request is served from — or nil if the block is
// uncached. Copies join the order at its end; one that leaves gives its
// place to the last. The copy is the cache's own record: read it, hand
// it to Use, and do not keep it past the next Insert or Drop.
func (c *Cache) Find(slot int32) *Copy {
	return c.at(c.dir[slot].head)
}

// FindOn returns node n's copy of the block in slot, or nil; see Find.
func (c *Cache) FindOn(n blockdev.NodeID, slot int32) *Copy {
	return c.at(c.findOn(n, slot))
}

// at returns the copy in slab record i, or nil for none.
func (c *Cache) at(i int32) *Copy {
	if i == none {
		return nil
	}
	return &c.copies[i]
}

// findOn returns the slab index of node n's copy of the block in slot,
// or none.
func (c *Cache) findOn(n blockdev.NodeID, slot int32) int32 {
	i := c.dir[slot].head
	for i != none && c.copies[i].Node != n {
		i = c.copies[i].links[dirList].next
	}
	return i
}

// InsertOptions qualifies a new copy.
type InsertOptions struct {
	Dirty      bool
	Prefetched bool
}

// Insert places a copy of the block in slot for node pref, evicting
// as needed per the policy, and returns the node the copy landed on plus any victims the
// caller must flush. Inserting a block already present on the chosen
// node is a touch plus flag merge, not a duplicate. The victims share
// one buffer the cache reuses: they are valid until the next Insert.
func (c *Cache) Insert(pref blockdev.NodeID, slot int32, opts InsertOptions) (blockdev.NodeID, []Victim) {
	c.checkNode(pref)
	// N-chance forwarding can cascade and refill a node that MakeRoom
	// just drained, so loop until the target really has a free buffer.
	// Termination: every MakeRoom call either drops a copy or uses up
	// one recirculation hop, both finite.
	target, victims := pref, c.victims[:0]
	existing := c.findOn(target, slot)
	for existing == none && c.nodes[target].len >= c.perNode {
		target, victims = c.policy.MakeRoom(c, target, victims)
		existing = c.findOn(target, slot)
	}
	c.victims = victims
	if existing != none {
		// Merging an insert into an existing copy: refresh recency and
		// upgrade dirtiness; an existing copy is by definition not a
		// fresh prefetch.
		cp := &c.copies[existing]
		c.Use(cp)
		if opts.Dirty {
			cp.Dirty = true
			c.dirty[slot] = true
		}
		return target, victims
	}
	c.place(Copy{Slot: slot, Node: target, Dirty: opts.Dirty, Prefetched: opts.Prefetched})
	return target, victims
}

// place puts a new copy, on a node with a free buffer, into a slab
// record, the recency lists and the directory. The record is the one a
// copy left last or, when none is free, a new one at the slab's end:
// the slab never outgrows the machine's buffers.
func (c *Cache) place(v Copy) {
	i := int32(len(c.copies))
	if n := len(c.free) - 1; n >= 0 {
		i, c.free = c.free[n], c.free[:n]
	} else {
		c.copies = append(c.copies, Copy{})
	}
	v.self = i
	c.copies[i] = v
	c.pushBack(&c.nodes[v.Node], nodeList, i)
	c.pushBack(&c.glob, globList, i)
	c.pushBack(&c.dir[v.Slot], dirList, i)
	if v.Dirty {
		c.dirty[v.Slot] = true
	}
}

// Use records a user access to the copy (from Find or FindOn),
// updating recency and clearing the prefetched flag, which fires
// OnPrefetchUsed.
func (c *Cache) Use(cp *Copy) {
	c.touch(&c.nodes[cp.Node], nodeList, cp.self)
	c.touch(&c.glob, globList, cp.self)
	if cp.Prefetched {
		cp.Prefetched = false
		if c.OnPrefetchUsed != nil {
			c.OnPrefetchUsed(cp.Slot)
		}
	}
}

// MarkDirty flags the copies of the block in slot as newer than disk.
// It reports whether the block was cached.
func (c *Cache) MarkDirty(slot int32) bool {
	if c.dir[slot].len == 0 {
		return false
	}
	for i := c.dir[slot].head; i != none; i = c.copies[i].links[dirList].next {
		c.copies[i].Dirty = true
	}
	c.dirty[slot] = true
	return true
}

// removeCopy unlinks the copy in slab record i from every list, frees
// the record and returns what it held.
func (c *Cache) removeCopy(i int32) Copy {
	c.stats.Removals++
	cp := &c.copies[i]
	c.unlink(&c.nodes[cp.Node], nodeList, i)
	c.unlink(&c.glob, globList, i)
	c.dirRemove(&c.dir[cp.Slot], i)
	if c.dir[cp.Slot].len == 0 {
		c.dirty[cp.Slot] = false
	}
	c.free = append(c.free, i)
	return *cp
}

// evict removes the copy in slab record i, producing a victim record.
func (c *Cache) evict(i int32, out []Victim) []Victim {
	cp := &c.copies[i]
	dirtyLast := cp.Dirty && c.dir[cp.Slot].len == 1
	was := c.removeCopy(i)
	return append(out, Victim{
		Slot:              was.Slot,
		Dirty:             dirtyLast,
		WasUnusedPrefetch: was.Prefetched,
	})
}

// Drop removes every copy of the block in slot without victim
// processing (used when a write invalidates stale prefetched data). It
// reports whether any copy existed.
func (c *Cache) Drop(slot int32) bool {
	d := &c.dir[slot]
	if d.len == 0 {
		return false
	}
	for d.len > 0 {
		c.removeCopy(d.head)
	}
	return true
}

// UnusedPrefetchedCopies counts copies still flagged Prefetched (never
// touched by a user request); experiments add them to the evicted
// wasted count to compute the paper's misprediction ratio.
func (c *Cache) UnusedPrefetchedCopies() uint64 {
	var n uint64
	for i := c.glob.head; i != none; i = c.copies[i].links[globList].next {
		if c.copies[i].Prefetched {
			n++
		}
	}
	return n
}

// DirtySlots returns the slots of the blocks with at least one dirty
// copy, in order: by file then block. The slice is reused: it is valid
// until the next call.
func (c *Cache) DirtySlots() []int32 {
	out := c.dirtyOrder[:0]
	for slot, dirty := range c.dirty {
		if dirty {
			out = append(out, int32(slot))
		}
	}
	c.dirtyOrder = out
	return out
}

// ClearDirty marks the block in slot clean after a successful disk
// write.
func (c *Cache) ClearDirty(slot int32) {
	for i := c.dir[slot].head; i != none; i = c.copies[i].links[dirList].next {
		c.copies[i].Dirty = false
	}
	c.dirty[slot] = false
}

func (c *Cache) checkNode(n blockdev.NodeID) {
	if int(n) < 0 || int(n) >= len(c.nodes) {
		panic(fmt.Sprintf("cachesim: node %d outside [0,%d)", n, len(c.nodes)))
	}
}

// pushBack appends slab record i to l, a list of kind k.
func (c *Cache) pushBack(l *list, k int, i int32) {
	c.copies[i].links[k] = link{prev: l.tail, next: none}
	if l.tail != none {
		c.copies[l.tail].links[k].next = i
	} else {
		l.head = i
	}
	l.tail = i
	l.len++
}

// unlink removes slab record i from l, a list of kind k.
func (c *Cache) unlink(l *list, k int, i int32) {
	ln := c.copies[i].links[k]
	if ln.prev != none {
		c.copies[ln.prev].links[k].next = ln.next
	} else {
		l.head = ln.next
	}
	if ln.next != none {
		c.copies[ln.next].links[k].prev = ln.prev
	} else {
		l.tail = ln.prev
	}
	l.len--
}

// touch moves slab record i to the back of l, a recency list of kind k.
func (c *Cache) touch(l *list, k int, i int32) {
	if l.tail != i {
		c.unlink(l, k, i)
		c.pushBack(l, k, i)
	}
}

// dirRemove takes slab record i out of the directory entry d the way a
// slice's swap-remove would: the entry's last copy takes i's place, so
// Find's holder after a removal is what it always was.
func (c *Cache) dirRemove(d *list, i int32) {
	last := d.tail
	c.unlink(d, dirList, last)
	if last == i {
		return
	}
	ln := c.copies[i].links[dirList]
	c.copies[last].links[dirList] = ln
	if ln.prev != none {
		c.copies[ln.prev].links[dirList].next = last
	} else {
		d.head = last
	}
	if ln.next != none {
		c.copies[ln.next].links[dirList].prev = last
	} else {
		d.tail = last
	}
}
