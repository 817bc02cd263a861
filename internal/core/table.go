package core

import "repro/internal/lrulist"

// table is the one bounded history structure under the learning
// predictors (the pattern graphs of ISPPM and BlockPPM): a map of at
// most max entries threaded on a list in update order. Creating an
// entry in a full table displaces the least recently updated one in
// constant time. Recency is the order of the update calls themselves,
// not a timestamp, so entries updated within one request are displaced
// in the order they were updated and a predictor's output depends on
// its input stream alone, never on map iteration order.
type table[K comparable, V any] struct {
	max     int
	entries map[K]*tableEntry[K, V]
	order   lrulist.List[tableEntry[K, V]] // front = least recently updated
}

type tableEntry[K comparable, V any] struct {
	key   K
	val   V
	links lrulist.Links[tableEntry[K, V]]
}

func newTable[K comparable, V any](max int) table[K, V] {
	return table[K, V]{
		max:     max,
		entries: make(map[K]*tableEntry[K, V]),
		order: lrulist.New(func(e *tableEntry[K, V]) *lrulist.Links[tableEntry[K, V]] {
			return &e.links
		}),
	}
}

func (t *table[K, V]) len() int { return len(t.entries) }

// get returns k's value, or nil when absent. Reading is not an update.
func (t *table[K, V]) get(k K) *V {
	if e := t.entries[k]; e != nil {
		return &e.val
	}
	return nil
}

// getOrCreate returns k's value, creating it zeroed when absent. A new
// entry is the most recently updated one; an existing entry keeps its
// place. The pointer is valid until the entry is displaced.
func (t *table[K, V]) getOrCreate(k K) *V { return &t.entry(k).val }

// update is getOrCreate that also makes k the most recently updated
// entry.
func (t *table[K, V]) update(k K) *V {
	e := t.entry(k)
	t.order.Touch(e)
	return &e.val
}

func (t *table[K, V]) entry(k K) *tableEntry[K, V] {
	if e := t.entries[k]; e != nil {
		return e
	}
	if len(t.entries) >= t.max {
		victim := t.order.Front()
		t.order.Remove(victim)
		delete(t.entries, victim.key)
	}
	e := &tableEntry[K, V]{key: k}
	t.entries[k] = e
	t.order.PushBack(e)
	return e
}
