package sim

// event is one scheduled event: its time, its scheduling order and its
// handler's slot in Engine.handlers. It holds no pointer, so moving one
// costs the collector nothing.
type event struct {
	at   int64  // compared first
	seq  uint64 // breaks ties: first scheduled, first fired
	slot int32
}

func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// minHeap is a binary min-heap of events held by value in one slice, so
// pushing and popping allocate nothing once the slice has grown to the
// heap's high-water mark.
type minHeap []event

func (h *minHeap) push(x event) {
	*h = append(*h, x)
	q := *h
	// Sift the hole up instead of swapping: one copy per level.
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

// pop removes and returns the least event; the heap must not be empty.
func (h *minHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	x := q[n]
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

// fifo is a first-in, first-out queue in a ring whose length is a power
// of two. It grows by doubling and never shrinks, so pushing and
// popping allocate nothing once it has grown to the queue's high-water
// mark.
type fifo[T any] struct {
	ring []T
	head int // the front's index in ring
	n    int
}

func (q *fifo[T]) len() int { return q.n }

// front and back return the first and last element; the queue must not
// be empty.
func (q *fifo[T]) front() *T { return &q.ring[q.head] }
func (q *fifo[T]) back() *T  { return &q.ring[(q.head+q.n-1)&(len(q.ring)-1)] }

func (q *fifo[T]) push(v T) {
	if q.n == len(q.ring) {
		q.grow()
	}
	q.ring[(q.head+q.n)&(len(q.ring)-1)] = v
	q.n++
}

// pop removes and returns the front; the queue must not be empty.
func (q *fifo[T]) pop() T {
	v := q.ring[q.head]
	var zero T
	q.ring[q.head] = zero // drop the reference the vacated slot holds
	q.head = (q.head + 1) & (len(q.ring) - 1)
	q.n--
	return v
}

// grow doubles the ring, unrolling it so the front is at index 0.
func (q *fifo[T]) grow() {
	ring := make([]T, max(8, 2*len(q.ring)))
	m := copy(ring, q.ring[q.head:])
	copy(ring[m:], q.ring[:q.head])
	q.ring, q.head = ring, 0
}
