// Package cachesim implements the cooperative-cache substrate both
// file systems run on: per-node buffer pools holding file blocks, a
// global directory locating every cached copy, LRU bookkeeping, dirty
// blocks with periodic fault-tolerance write-back, and two replacement
// managers — a globally managed LRU (PAFS-style, §4) and per-node LRU
// with N-chance singlet forwarding (xFS-style, after Dahlin et al.).
package cachesim

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/blockdev"
	"repro/internal/lrulist"
	"repro/internal/sim"
)

// Copy is one cached copy of a block on one node. Copies are linked
// into their node's LRU list and, for global-LRU management, into a
// machine-wide LRU list.
type Copy struct {
	Block blockdev.BlockID
	Node  blockdev.NodeID
	// Dirty marks data newer than the disk image.
	Dirty bool
	// Prefetched marks a copy brought in speculatively and not yet
	// referenced by any user request.
	Prefetched bool
	// Recirculated counts N-chance forwarding hops (xFS policy).
	Recirculated int

	lastUse   sim.Time
	nodeLinks lrulist.Links[Copy] // per-node LRU links
	globLinks lrulist.Links[Copy] // global LRU links
}

// The recency machinery itself lives in internal/lrulist (shared with
// the lapcache runtime); the two Links fields let one copy sit on its
// node's list and the machine-wide list at once.

// newNodeLRU threads a list through the per-node link pair.
func newNodeLRU() lrulist.List[Copy] {
	return lrulist.New[Copy](func(c *Copy) *lrulist.Links[Copy] { return &c.nodeLinks })
}

// newGlobalLRU threads a list through the global link pair.
func newGlobalLRU() lrulist.List[Copy] {
	return lrulist.New[Copy](func(c *Copy) *lrulist.Links[Copy] { return &c.globLinks })
}

// Victim is an evicted copy the caller must handle: if Dirty, the
// block's contents must be written to disk before the buffer is
// reused.
type Victim struct {
	Block blockdev.BlockID
	Dirty bool
	// WasUnusedPrefetch marks a speculative block evicted before any
	// user request touched it — a wasted prefetch.
	WasUnusedPrefetch bool
}

// Stats aggregates cache-level counters.
type Stats struct {
	Forwards         uint64 // N-chance singlet forwards
	WastedPrefetches uint64 // prefetched copies evicted unused
	UsedPrefetches   uint64 // prefetched copies later hit by a user request
	Removals         uint64 // copies that left a pool, for any reason: the core.Env eviction count
}

// Cache is the cooperative cache: per-node pools plus the global
// directory.
type Cache struct {
	engine    *sim.Engine
	perNode   int // capacity per node, in blocks
	nodes     []nodeState
	dir       map[blockdev.BlockID][]*Copy
	globLRU   lrulist.List[Copy] // only maintained under global-LRU management
	policy    Policy
	rng       *sim.RNG
	stats     Stats
	dirty     map[blockdev.BlockID]bool // blocks with a dirty copy
	scanStart int                       // rotating start for free-buffer scans

	// Records a steady-state insert reuses instead of allocating: the
	// copies and directory lists that evictions emptied, and the
	// buffer Insert returns its victims in.
	spareCopies []*Copy
	spareLists  [][]*Copy
	victims     []Victim

	// OnPrefetchUsed, if set, fires when a user request first touches a
	// prefetched copy — the moment a prefetch is known to have been
	// timely. Observation only: the hook must not mutate the cache.
	OnPrefetchUsed func(b blockdev.BlockID)
}

type nodeState struct {
	lru lrulist.List[Copy]
}

// Policy chooses how room is made when a node's pool is full.
type Policy interface {
	// Name identifies the policy in output.
	Name() string
	// MakeRoom frees one buffer so that a new block can be placed
	// "for" node pref. It returns the node that now has a free buffer
	// and appends any evicted blocks to out. The returned slice is the
	// updated out.
	MakeRoom(c *Cache, pref blockdev.NodeID, out []Victim) (blockdev.NodeID, []Victim)
}

// New constructs a cache of nNodes pools with perNode blocks each,
// managed by the given policy. The RNG is split from the engine's
// stream (N-chance forwarding picks random target nodes).
func New(e *sim.Engine, nNodes, perNode int, policy Policy) *Cache {
	if nNodes <= 0 || perNode <= 0 {
		panic(fmt.Sprintf("cachesim: invalid geometry %d nodes x %d blocks", nNodes, perNode))
	}
	c := &Cache{
		engine:  e,
		perNode: perNode,
		nodes:   make([]nodeState, nNodes),
		dir:     make(map[blockdev.BlockID][]*Copy),
		globLRU: newGlobalLRU(),
		policy:  policy,
		rng:     e.RNG().Split(),
		dirty:   make(map[blockdev.BlockID]bool),
	}
	for i := range c.nodes {
		c.nodes[i].lru = newNodeLRU()
	}
	return c
}

// Nodes returns the number of per-node pools.
func (c *Cache) Nodes() int { return len(c.nodes) }

// PerNodeCapacity returns each pool's capacity in blocks.
func (c *Cache) PerNodeCapacity() int { return c.perNode }

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats { return c.stats }

// Policy returns the replacement manager in use.
func (c *Cache) Policy() Policy { return c.policy }

// Len returns the total number of cached copies.
func (c *Cache) Len() int {
	n := 0
	for i := range c.nodes {
		n += c.nodes[i].lru.Len()
	}
	return n
}

// NodeLen returns the number of copies cached on node n.
func (c *Cache) NodeLen(n blockdev.NodeID) int { return c.nodes[n].lru.Len() }

// Contains reports whether any copy of b is cached.
func (c *Cache) Contains(b blockdev.BlockID) bool { return len(c.dir[b]) > 0 }

// ContainsOn reports whether node n holds a copy of b.
func (c *Cache) ContainsOn(n blockdev.NodeID, b blockdev.BlockID) bool {
	return c.FindOn(n, b) != nil
}

// Find returns b's first copy in insertion order — the holder a
// request is served from — or nil if the block is uncached. The copy
// is the cache's own record: read it, hand it to Use, and do not keep
// it past the next Insert or Drop.
func (c *Cache) Find(b blockdev.BlockID) *Copy {
	if copies := c.dir[b]; len(copies) > 0 {
		return copies[0]
	}
	return nil
}

// FindOn returns node n's copy of b, or nil; see Find.
func (c *Cache) FindOn(n blockdev.NodeID, b blockdev.BlockID) *Copy {
	for _, cp := range c.dir[b] {
		if cp.Node == n {
			return cp
		}
	}
	return nil
}

// InsertOptions qualifies a new copy.
type InsertOptions struct {
	Dirty      bool
	Prefetched bool
}

// Insert places a copy of b for node pref, evicting as needed per the
// policy, and returns the node the copy landed on plus any victims the
// caller must flush. Inserting a block already present on the chosen
// node is a touch plus flag merge, not a duplicate. The victims share
// one buffer the cache reuses: they are valid until the next Insert.
func (c *Cache) Insert(pref blockdev.NodeID, b blockdev.BlockID, opts InsertOptions) (blockdev.NodeID, []Victim) {
	c.checkNode(pref)
	// N-chance forwarding can cascade and refill a node that MakeRoom
	// just drained, so loop until the target really has a free buffer.
	// Termination: every MakeRoom call either drops a copy or uses up
	// one recirculation hop, both finite.
	target, victims := pref, c.victims[:0]
	existing := c.FindOn(target, b)
	for existing == nil && c.nodes[target].lru.Len() >= c.perNode {
		target, victims = c.policy.MakeRoom(c, target, victims)
		existing = c.FindOn(target, b)
	}
	c.victims = victims
	if existing != nil {
		// Merging an insert into an existing copy: refresh recency and
		// upgrade dirtiness; an existing copy is by definition not a
		// fresh prefetch.
		c.Use(existing)
		if opts.Dirty {
			existing.Dirty = true
			c.dirty[b] = true
		}
		return target, victims
	}
	c.place(Copy{Block: b, Node: target, Dirty: opts.Dirty, Prefetched: opts.Prefetched})
	return target, victims
}

// place links a new copy, on a node with a free buffer, into the
// directory and the recency lists, in a recycled record when there is
// one.
func (c *Cache) place(v Copy) {
	var cp *Copy
	if n := len(c.spareCopies); n > 0 {
		cp, c.spareCopies = c.spareCopies[n-1], c.spareCopies[:n-1]
	} else {
		cp = new(Copy)
	}
	*cp = v
	cp.lastUse = c.engine.Now()
	copies, ok := c.dir[v.Block]
	if n := len(c.spareLists); !ok && n > 0 {
		copies, c.spareLists = c.spareLists[n-1], c.spareLists[:n-1]
	}
	c.dir[v.Block] = append(copies, cp)
	c.nodes[v.Node].lru.PushBack(cp)
	c.globLRU.PushBack(cp)
	if v.Dirty {
		c.dirty[v.Block] = true
	}
}

// Use records a user access to the copy (from Find or FindOn),
// updating recency and prefetch accounting.
func (c *Cache) Use(cp *Copy) {
	cp.lastUse = c.engine.Now()
	c.nodes[cp.Node].lru.Touch(cp)
	c.globLRU.Touch(cp)
	if cp.Prefetched {
		cp.Prefetched = false
		c.stats.UsedPrefetches++
		if c.OnPrefetchUsed != nil {
			c.OnPrefetchUsed(cp.Block)
		}
	}
}

// Touch records a user access to b's copy on node n (or, if n holds no
// copy, to the first copy). It reports whether a copy was found.
func (c *Cache) Touch(n blockdev.NodeID, b blockdev.BlockID) bool {
	cp := c.FindOn(n, b)
	if cp == nil {
		cp = c.Find(b)
	}
	if cp != nil {
		c.Use(cp)
	}
	return cp != nil
}

// MarkDirty flags b's copies as newer than disk. It reports whether
// the block was cached.
func (c *Cache) MarkDirty(b blockdev.BlockID) bool {
	copies := c.dir[b]
	if len(copies) == 0 {
		return false
	}
	for _, cp := range copies {
		cp.Dirty = true
	}
	c.dirty[b] = true
	return true
}

// removeCopy unlinks the copy from all structures and the directory
// and returns what it held; the record itself, and the directory list
// it was the last entry of, are kept for place to reuse.
func (c *Cache) removeCopy(cp *Copy) Copy {
	c.stats.Removals++
	c.nodes[cp.Node].lru.Remove(cp)
	c.globLRU.Remove(cp)
	copies := c.dir[cp.Block]
	for i, x := range copies {
		if x == cp {
			copies[i] = copies[len(copies)-1]
			copies = copies[:len(copies)-1]
			break
		}
	}
	if len(copies) == 0 {
		delete(c.dir, cp.Block)
		delete(c.dirty, cp.Block)
		c.spareLists = append(c.spareLists, copies)
	} else {
		c.dir[cp.Block] = copies
	}
	c.spareCopies = append(c.spareCopies, cp)
	return *cp
}

// evict removes cp, producing a victim record.
func (c *Cache) evict(cp *Copy, out []Victim) []Victim {
	if cp.Prefetched {
		c.stats.WastedPrefetches++
	}
	dirtyLast := cp.Dirty && len(c.dir[cp.Block]) == 1
	was := c.removeCopy(cp)
	return append(out, Victim{
		Block:             was.Block,
		Dirty:             dirtyLast,
		WasUnusedPrefetch: was.Prefetched,
	})
}

// Drop removes every copy of b without victim processing (used when a
// write invalidates stale prefetched data). It reports whether any
// copy existed.
func (c *Cache) Drop(b blockdev.BlockID) bool {
	copies := c.dir[b]
	if len(copies) == 0 {
		return false
	}
	for len(c.dir[b]) > 0 {
		c.removeCopy(c.dir[b][0])
	}
	return true
}

// UnusedPrefetchedCopies counts copies still flagged Prefetched (never
// touched by a user request); experiments add them to the evicted
// wasted count to compute the paper's misprediction ratio.
func (c *Cache) UnusedPrefetchedCopies() uint64 {
	var n uint64
	for _, copies := range c.dir {
		for _, cp := range copies {
			if cp.Prefetched {
				n++
			}
		}
	}
	return n
}

// DirtyBlocks returns the blocks with at least one dirty copy, in
// deterministic (directory-ordered by file then block) order.
func (c *Cache) DirtyBlocks() []blockdev.BlockID {
	out := make([]blockdev.BlockID, 0, len(c.dirty))
	for b := range c.dirty {
		out = append(out, b)
	}
	sortBlocks(out)
	return out
}

// ClearDirty marks b clean after a successful disk write.
func (c *Cache) ClearDirty(b blockdev.BlockID) {
	for _, cp := range c.dir[b] {
		cp.Dirty = false
	}
	delete(c.dirty, b)
}

func (c *Cache) checkNode(n blockdev.NodeID) {
	if int(n) < 0 || int(n) >= len(c.nodes) {
		panic(fmt.Sprintf("cachesim: node %d outside [0,%d)", n, len(c.nodes)))
	}
}

func sortBlocks(bs []blockdev.BlockID) {
	slices.SortFunc(bs, func(a, b blockdev.BlockID) int {
		return cmp.Or(cmp.Compare(a.File, b.File), cmp.Compare(a.Block, b.Block))
	})
}
