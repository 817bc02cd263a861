package core

import (
	"repro/internal/blockdev"
	"repro/internal/lrulist"
)

// table is the one bounded history structure under the learning
// predictors (the pattern graphs of ISPPM and BlockPPM, the rows of
// Mithril and Markov): a map of at most max entries threaded on a list
// in update order. Creating an entry in a full table displaces the
// least recently updated one in constant time. Recency is the order of
// the update calls themselves, not a timestamp, so entries updated
// within one request are displaced in the order they were updated and
// a predictor's output depends on its input stream alone, never on map
// iteration order.
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

// cand is one candidate successor of a source block.
type cand struct {
	block  blockdev.BlockNo
	size   int32 // size of the request that confirmed the pair last
	weight uint32
}

// candRow is the bounded successor set of one source block, the row
// type of both Mithril (weights 1 and 2) and Markov (weight 1).
type candRow []cand

// bump strengthens successor dst by w, keeping at most width
// candidates. A newcomer to a full row takes the weakest slot only if
// its weight would not be the weakest; otherwise the weakest decays by
// one, so a persistently re-confirmed newcomer eventually wins (a
// bounded variant of space-saving counting). The newcomer starts at w,
// not at the displaced weight plus w, which *underestimates* it — the
// safe direction for a threshold-gated prefetcher.
func (r *candRow) bump(dst blockdev.BlockNo, size int32, w uint32, width int) {
	row := *r
	for i := range row {
		if row[i].block == dst {
			row[i].weight += w
			row[i].size = size
			return
		}
	}
	if len(row) < width {
		*r = append(row, cand{block: dst, size: size, weight: w})
		return
	}
	weakest := 0
	for i := 1; i < len(row); i++ {
		if row[i].weight < row[weakest].weight {
			weakest = i
		}
	}
	if row[weakest].weight <= w {
		row[weakest] = cand{block: dst, size: size, weight: w}
	} else {
		row[weakest].weight--
	}
}

// strongest returns the heaviest candidate, the earliest among equals;
// ok is false for an empty row.
func (r candRow) strongest() (c cand, ok bool) {
	for _, x := range r {
		if !ok || x.weight > c.weight {
			c, ok = x, true
		}
	}
	return c, ok
}
