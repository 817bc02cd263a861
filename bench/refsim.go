package main

import (
	"container/heap"
	"container/list"
)

// The yardstick of host speed for sim_sweep (README, "Host time"): a
// frozen miniature of what the simulator does (a time-ordered heap of
// closures, a block cache kept as a map and a recency list, a disk that
// answers later) on a fixed pseudo-random request stream. It lives
// here, not in internal/, so that no change to the simulator can move
// it.

type refEvent struct {
	at  int64
	seq uint64
	fn  func()
}

type refQueue []*refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)   { *q = append(*q, x.(*refEvent)) }
func (q *refQueue) Pop() any {
	old := *q
	ev := old[len(old)-1]
	old[len(old)-1] = nil
	*q = old[:len(old)-1]
	return ev
}

const (
	refClients     = 16
	refCacheBlocks = 4096
	refFileBlocks  = 1 << 16
	refRequests    = 12000 // per unit, all clients together
)

// refSimNominalMs is what one unit takes on the machine this benchmark
// was calibrated on (2 virtual processors of a 2.1 GHz Xeon, both busy
// with a sweep) when nothing disturbs it. It only fixes the scale of
// the host-time metrics: they read as they would on that machine.
const refSimNominalMs = 14

// refSimUnit simulates refRequests block requests and returns a digest
// of the outcome (hits and final clock), the same on every call.
func refSimUnit() uint64 {
	var (
		q     refQueue
		now   int64
		seq   uint64
		hits  uint64
		left  = refRequests
		cache = make(map[uint64]*list.Element, refCacheBlocks)
		lru   = list.New()
	)
	at := func(t int64, fn func()) {
		heap.Push(&q, &refEvent{at: t, seq: seq, fn: fn})
		seq++
	}
	insert := func(b uint64) {
		if _, ok := cache[b]; ok {
			return
		}
		if lru.Len() == refCacheBlocks {
			delete(cache, lru.Remove(lru.Back()).(uint64))
		}
		cache[b] = lru.PushFront(b)
	}
	var request func(c int, r *rng, b uint64)
	request = func(c int, r *rng, b uint64) {
		if left == 0 {
			return
		}
		left--
		// Three requests in four continue the client's sequential run.
		if r.intn(4) == 0 {
			b = uint64(c)<<32 | uint64(r.intn(refFileBlocks))
		} else {
			b++
		}
		think := int64(r.between(100, 2000))
		if el, ok := cache[b]; ok {
			hits++
			lru.MoveToFront(el)
			at(now+think, func() { request(c, r, b) })
			return
		}
		at(now+10_000, func() {
			insert(b)
			insert(b + 1) // one block ahead
			at(now+think, func() { request(c, r, b) })
		})
	}
	for c := 0; c < refClients; c++ {
		r := newRNG(12345, 7, uint64(c))
		at(int64(c), func() { request(c, r, uint64(c)<<32) })
	}
	for q.Len() > 0 {
		ev := heap.Pop(&q).(*refEvent)
		now = ev.at
		ev.fn()
	}
	return hits<<32 ^ uint64(now)
}
