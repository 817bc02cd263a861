// Package lrulist provides an intrusive doubly linked list ordered by
// recency: least recently used at the front, most recently used at the
// back. "Intrusive" means the links live inside the element itself, so
// membership costs no allocation per operation, and one element can sit
// on several lists at once through distinct Links fields. Its user is
// the lapcache runtime's cache shards, one list per element. (The
// simulator's cooperative cache and core's pattern graph link their
// records by slab index instead, so that moving one writes no pointer;
// see internal/cachesim and core's table.)
//
// The list itself is not synchronized; callers that share a list across
// goroutines (the lapcache shards) guard it with their own mutex.
package lrulist

// Links is the pair of neighbour pointers embedded in an element, one
// Links field per list the element can belong to. The zero value is an
// unlinked element.
type Links[T any] struct {
	prev, next *T
}

// List is one recency list over elements of type T. The zero value is
// not usable; construct with New.
type List[T any] struct {
	head, tail *T
	len        int
	// links maps an element to the Links field backing THIS list,
	// selecting which of the element's link pairs the list threads.
	links func(*T) *Links[T]
}

// New returns an empty list threading the Links field selected by
// links. The selector must be pure: the same element must always yield
// the same field.
func New[T any](links func(*T) *Links[T]) List[T] {
	if links == nil {
		panic("lrulist: nil links selector")
	}
	return List[T]{links: links}
}

// Len returns the number of linked elements.
func (l *List[T]) Len() int { return l.len }

// Front returns the least recently used element, or nil when empty.
func (l *List[T]) Front() *T { return l.head }

// Back returns the most recently used element, or nil when empty.
func (l *List[T]) Back() *T { return l.tail }

// Next returns the element after e in LRU→MRU order, or nil at the
// back. It lets eviction scans walk from the coldest element without
// reaching into the links.
func (l *List[T]) Next(e *T) *T { return l.links(e).next }

// PushBack appends e as the most recently used element. e must not
// already be on this list.
func (l *List[T]) PushBack(e *T) {
	ln := l.links(e)
	ln.prev = l.tail
	ln.next = nil
	if l.tail != nil {
		l.links(l.tail).next = e
	} else {
		l.head = e
	}
	l.tail = e
	l.len++
}

// Remove unlinks e, which must be on this list.
func (l *List[T]) Remove(e *T) {
	ln := l.links(e)
	if ln.prev != nil {
		l.links(ln.prev).next = ln.next
	} else {
		l.head = ln.next
	}
	if ln.next != nil {
		l.links(ln.next).prev = ln.prev
	} else {
		l.tail = ln.prev
	}
	ln.prev, ln.next = nil, nil
	l.len--
}

// Touch moves e, which must be on this list, to the most recently used
// position.
func (l *List[T]) Touch(e *T) {
	if l.tail == e {
		return
	}
	l.Remove(e)
	l.PushBack(e)
}
