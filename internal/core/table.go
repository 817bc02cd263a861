package core

import "math/bits"

// table is the pattern graph under both learning predictors (ISPPM and
// BlockPPM): at most max nodes, each keyed by its history window and
// threaded on a list in update order. Creating a node in a full table
// displaces the least recently updated one in constant time. Recency
// is the order of the update calls themselves, not a timestamp, so
// nodes updated within one request are displaced in the order they
// were updated and a predictor's output depends on its input stream
// alone, never on where a key happens to hash.
//
// The layout is flat, like cachesim's: entries sit in one slab linked
// by int32 position, and an open-addressed index of slab positions
// finds them. The slab appends until max; after that a new node takes
// the victim's position in place. The index hashes only the window's n
// pairs (the rest of a key is always zero) and stays at most half full.
type table struct {
	max        int
	entries    []tableEntry
	index      []int32 // slab position + 1, 0 when empty; len a power of two
	shift      uint    // 64 - log2(len(index)): a hash's top bits pick its home slot
	head, tail int32   // least and most recently updated entry, -1 when empty
}

type tableEntry struct {
	key        histKey
	node       node
	prev, next int32
}

func newTable(max int) table { return table{max: max, head: -1, tail: -1} }

func (t *table) len() int { return len(t.entries) }

// get returns k's node, or nil when absent. Reading is not an update.
func (t *table) get(k *histKey) *node {
	if pos := t.find(k, k.hash()); pos >= 0 {
		return &t.entries[pos].node
	}
	return nil
}

// at returns the node at slab position pos.
func (t *table) at(pos int32) *node { return &t.entries[pos].node }

// getOrCreate returns k's node, creating it empty when absent. A new
// node is the most recently updated one; an existing node keeps its
// place. The pointer is valid until the next call that creates a node.
func (t *table) getOrCreate(k *histKey) *node { return t.at(t.entry(k)) }

// getOrCreateAt is getOrCreate given pos, a slab position k's entry
// had before. A displacement rewrites an entry in place, so while the
// entry at pos holds k it is k's, and no lookup is needed.
func (t *table) getOrCreateAt(pos int32, k *histKey) *node {
	if e := &t.entries[pos]; e.key.eq(k) {
		return &e.node
	}
	return t.getOrCreate(k)
}

// update is getOrCreate that also makes k the most recently updated
// node; it returns the node's slab position.
func (t *table) update(k *histKey) int32 {
	pos := t.entry(k)
	if pos != t.tail {
		t.unlink(pos)
		t.pushBack(pos)
	}
	return pos
}

func (t *table) entry(k *histKey) int32 {
	h := k.hash()
	pos := t.find(k, h)
	if pos >= 0 {
		return pos
	}
	if len(t.entries) < t.max {
		if 2*(len(t.entries)+1) > len(t.index) {
			t.grow()
		}
		pos = int32(len(t.entries))
		t.entries = append(t.entries, tableEntry{key: *k})
	} else {
		pos = t.head
		t.unlink(pos)
		t.unindex(pos)
		e := &t.entries[pos]
		e.key = *k
		// The victim's link map, emptied, serves the new node: a
		// displacement allocates nothing.
		clear(e.node.more)
		e.node = node{more: e.node.more}
	}
	t.place(h, pos)
	t.pushBack(pos)
	return pos
}

// hash mixes n and the window's n pairs, one multiply per pair.
func (k *histKey) hash() uint64 {
	h := uint64(k.n)
	for _, p := range k.p[:k.n] {
		h = (bits.RotateLeft64(h, 5) ^ uint64(uint32(p.interval)) ^ uint64(uint32(p.size))<<32) * 0x9e3779b97f4a7c15
	}
	return h
}

// eq compares two windows by n and their first n pairs, the only ones
// that can differ.
func (k *histKey) eq(o *histKey) bool {
	if k.n != o.n {
		return false
	}
	for i := range k.n {
		if k.p[i] != o.p[i] {
			return false
		}
	}
	return true
}

// find returns k's slab position, or -1 when absent; h is k.hash().
func (t *table) find(k *histKey, h uint64) int32 {
	if len(t.index) == 0 {
		return -1
	}
	mask := uint64(len(t.index) - 1)
	for s := h >> t.shift; ; s = (s + 1) & mask {
		i := t.index[s]
		if i == 0 {
			return -1
		}
		if t.entries[i-1].key.eq(k) {
			return i - 1
		}
	}
}

// place indexes slab position pos under hash h, whose key is absent.
func (t *table) place(h uint64, pos int32) {
	mask := uint64(len(t.index) - 1)
	s := h >> t.shift
	for t.index[s] != 0 {
		s = (s + 1) & mask
	}
	t.index[s] = pos + 1
}

// unindex removes slab position pos from the index by backward-shift
// deletion: each later member of the probe run moves into the hole
// unless that would put it before its home slot, so no tombstone is
// left for a later probe to walk over.
func (t *table) unindex(pos int32) {
	mask := uint64(len(t.index) - 1)
	s := t.entries[pos].key.hash() >> t.shift
	for t.index[s] != pos+1 {
		s = (s + 1) & mask
	}
	for j := (s + 1) & mask; t.index[j] != 0; j = (j + 1) & mask {
		home := t.entries[t.index[j]-1].key.hash() >> t.shift
		if (j-home)&mask >= (j-s)&mask {
			t.index[s] = t.index[j]
			s = j
		}
	}
	t.index[s] = 0
}

// grow doubles the index (to eight slots at first) and re-places every
// entry.
func (t *table) grow() {
	n := max(8, 2*len(t.index))
	t.index = make([]int32, n)
	t.shift = uint(64 - bits.TrailingZeros(uint(n)))
	for pos := range t.entries {
		t.place(t.entries[pos].key.hash(), int32(pos))
	}
}

func (t *table) unlink(pos int32) {
	e := &t.entries[pos]
	if e.prev >= 0 {
		t.entries[e.prev].next = e.next
	} else {
		t.head = e.next
	}
	if e.next >= 0 {
		t.entries[e.next].prev = e.prev
	} else {
		t.tail = e.prev
	}
}

func (t *table) pushBack(pos int32) {
	e := &t.entries[pos]
	e.prev, e.next = t.tail, -1
	if t.tail >= 0 {
		t.entries[t.tail].next = pos
	} else {
		t.head = pos
	}
	t.tail = pos
}
