package sim

// item is one heap element: a value under a two-part key. Keeping the
// key beside the value, rather than asking the value for it, is what
// lets one implementation order both the engine's events (time, then
// scheduling order) and a resource's requests (priority, then arrival
// order) with plain integer compares and no interface in between.
type item[T any] struct {
	rank int64  // compared first
	seq  uint64 // breaks ties: first in, first out
	val  T
}

// minHeap is a binary min-heap of items held by value in one slice, so
// pushing and popping allocate nothing once the slice has grown to the
// queue's high-water mark.
type minHeap[T any] []item[T]

func (a *item[T]) before(b *item[T]) bool {
	if a.rank != b.rank {
		return a.rank < b.rank
	}
	return a.seq < b.seq
}

func (h *minHeap[T]) push(rank int64, seq uint64, val T) {
	*h = append(*h, item[T]{rank, seq, val})
	q := *h
	// Sift the hole up instead of swapping: one copy per level.
	x := q[len(q)-1]
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !x.before(&q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = x
}

// pop removes and returns the least item; the heap must not be empty.
func (h *minHeap[T]) pop() item[T] {
	q := *h
	top := q[0]
	n := len(q) - 1
	x := q[n]
	q[n] = item[T]{} // drop the reference the vacated slot holds
	q = q[:n]
	*h = q
	if n == 0 {
		return top
	}
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && q[r].before(&q[child]) {
			child = r
		}
		if !q[child].before(&x) {
			break
		}
		q[i] = q[child]
		i = child
	}
	q[i] = x
	return top
}
