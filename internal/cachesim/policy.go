package cachesim

import "repro/internal/blockdev"

// GlobalLRU is the PAFS-style replacement manager: the cooperative
// cache behaves as one machine-wide pool, and the victim is the
// globally least-recently-used copy on any node. The freed buffer is
// wherever the victim lived, so a block inserted "for" one node may be
// placed on another — exactly the globally managed behaviour PAFS's
// centralized servers implement (§4).
type GlobalLRU struct{}

// MakeRoom evicts the globally oldest copy and hands its node back as
// the placement target.
func (GlobalLRU) MakeRoom(c *Cache, pref blockdev.NodeID, out []Victim) (blockdev.NodeID, []Victim) {
	// If any node still has room, place there instead of evicting:
	// a globally managed cache never evicts while free buffers exist.
	// Prefer the requesting node (already known full), then scan.
	if n, ok := c.anyFreeNode(); ok {
		return n, out
	}
	victim := c.glob.head
	if victim == none {
		// Impossible with positive capacity; guard anyway.
		return pref, out
	}
	node := c.copies[victim].Node
	out = c.evict(victim, out)
	return node, out
}

// anyFreeNode scans for a pool with a free buffer, round-robin from a
// rotating start so placement spreads across the machine.
func (c *Cache) anyFreeNode() (blockdev.NodeID, bool) {
	n := len(c.nodes)
	start := c.scanStart
	for i := 0; i < n; i++ {
		id := (start + i) % n
		if c.nodes[id].len < c.perNode {
			c.scanStart = (id + 1) % n
			return blockdev.NodeID(id), true
		}
	}
	return 0, false
}

// NChance is the xFS-style replacement manager (Dahlin et al.): each
// node evicts from its own LRU list; if the victim is a singlet (the
// only cached copy of its block) it is forwarded to a random other
// node instead of being dropped, up to Recirculations hops. Duplicate
// copies and exhausted singlets are dropped.
type NChance struct {
	// Recirculations is the N in N-chance; Dahlin et al. found N=2
	// captures most of the benefit.
	Recirculations int
}

// MakeRoom frees a buffer on node pref itself (xFS decisions are
// local), forwarding singlet victims per the N-chance protocol.
func (p NChance) MakeRoom(c *Cache, pref blockdev.NodeID, out []Victim) (blockdev.NodeID, []Victim) {
	victim := c.nodes[pref].head
	if victim == none {
		return pref, out
	}
	v := &c.copies[victim]
	singlet := c.dir[v.Slot].len == 1
	if singlet && int(v.Recirculated) < p.Recirculations && len(c.nodes) > 1 {
		// Forward to a random other node; this may cascade an eviction
		// there, which is the protocol's intent (the oldest block on
		// the target makes room for the singlet).
		target := c.randomOtherNode(pref)
		fwd := c.removeCopy(victim)
		for c.nodes[target].len >= c.perNode {
			_, out = p.MakeRoom(c, target, out)
		}
		c.place(Copy{Slot: fwd.Slot, Node: target, Dirty: fwd.Dirty,
			Prefetched: fwd.Prefetched, Recirculated: fwd.Recirculated + 1})
		c.stats.Forwards++
		return pref, out
	}
	out = c.evict(victim, out)
	return pref, out
}

// randomOtherNode picks a uniformly random node different from n.
func (c *Cache) randomOtherNode(n blockdev.NodeID) blockdev.NodeID {
	t := blockdev.NodeID(c.rng.Intn(len(c.nodes) - 1))
	if t >= n {
		t++
	}
	return t
}
