// Package blockbuf provides pooled, reference-counted block buffers:
// the allocation-free currency of the lapcache data path. A Buf is
// born from a Pool with one reference; every holder that wants to keep
// it past the call that handed it over takes its own reference with
// Retain and drops it with Release. When the last reference falls the
// buffer returns to the pool and is recycled by a later Get.
//
// Ownership rules (see DESIGN.md §7 for the cache lifecycle):
//
//   - Pool.Get returns a Buf owned by the caller (refcount 1).
//   - Passing a Buf to a consumer that documents *taking ownership*
//     (e.g. the block cache's Put) transfers that one reference; the
//     caller must Retain first if it still needs the buffer.
//   - Producers that hand out a Buf they still own (e.g. the block
//     cache's Get) Retain on the caller's behalf; the caller must
//     Release when done.
//
// Misuse is detected, not silently tolerated: releasing more times
// than retained panics, retaining a dead buffer panics, and in poison
// mode a write to a buffer after its last Release is caught at the
// next recycle.
package blockbuf

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// poisonByte fills released buffers in poison mode. 0xDB is unlikely
// to appear as a full-block fill in tests using FillPattern data.
const poisonByte = 0xDB

// Pool hands out fixed-size reference-counted buffers backed by a
// sync.Pool. Safe for concurrent use.
type Pool struct {
	size   int
	poison atomic.Bool
	pool   sync.Pool

	allocs   atomic.Uint64 // buffers newly allocated
	recycles atomic.Uint64 // buffers reused from the pool
	live     atomic.Int64  // buffers out of the pool (Get minus last Release)
}

// NewPool returns a pool of buffers of exactly size bytes.
func NewPool(size int) *Pool {
	if size <= 0 {
		panic(fmt.Sprintf("blockbuf: invalid buffer size %d", size))
	}
	return &Pool{size: size}
}

// SetPoison switches the pool's test mode: every Release of a last
// reference overwrites the buffer with a poison pattern, and every
// recycle verifies the pattern is intact — catching holders that keep
// writing through a stale reference. Meant for tests; poisoning costs
// a full-buffer write per recycle.
func (p *Pool) SetPoison(on bool) { p.poison.Store(on) }

// Stats reports how many buffers were newly allocated and how many
// Gets were served by recycling.
func (p *Pool) Stats() (allocs, recycles uint64) {
	return p.allocs.Load(), p.recycles.Load()
}

// Live returns how many buffers are currently out of the pool: Gets
// minus final Releases. Every live buffer is held by someone — a
// cache entry, an in-flight response, a caller — so once a system
// built on the pool has quiesced and released its caches, a nonzero
// Live is a leak. The chaos harness asserts Live()==0 after teardown.
func (p *Pool) Live() int64 { return p.live.Load() }

// Get returns a buffer with refcount 1. Contents are undefined (a
// recycled buffer carries stale or poison bytes); the caller fills it.
func (p *Pool) Get() *Buf {
	if v := p.pool.Get(); v != nil {
		b := v.(*Buf)
		if p.poison.Load() {
			b.checkPoison()
		}
		b.refs.Store(1)
		p.recycles.Add(1)
		p.live.Add(1)
		return b
	}
	p.allocs.Add(1)
	p.live.Add(1)
	b := &Buf{pool: p, data: make([]byte, p.size)}
	b.refs.Store(1)
	return b
}

// Buf is one pooled block buffer. The zero value is not usable; get
// one from a Pool.
type Buf struct {
	pool *Pool
	refs atomic.Int32
	data []byte
}

// Bytes returns the buffer's backing slice. Valid only while the
// caller holds a reference; the slice must not be retained past
// Release.
func (b *Buf) Bytes() []byte { return b.data }

// Retain takes an additional reference and returns b for chaining.
// The caller must already hold a reference (retaining a buffer whose
// count reached zero is a use-after-free and panics).
func (b *Buf) Retain() *Buf {
	for {
		n := b.refs.Load()
		if n <= 0 {
			panic(fmt.Sprintf("blockbuf: Retain of a released buffer (refs=%d)", n))
		}
		if b.refs.CompareAndSwap(n, n+1) {
			return b
		}
	}
}

// Release drops one reference. The last Release returns the buffer to
// its pool (poisoning it first in poison mode); releasing more times
// than retained panics.
func (b *Buf) Release() {
	n := b.refs.Add(-1)
	if n < 0 {
		panic(fmt.Sprintf("blockbuf: Release of an already-released buffer (refs=%d)", n))
	}
	if n > 0 {
		return
	}
	b.pool.live.Add(-1)
	if b.pool.poison.Load() {
		for i := range b.data {
			b.data[i] = poisonByte
		}
	}
	b.pool.pool.Put(b)
}

// checkPoison verifies a recycled buffer still carries the poison
// pattern written by its last Release; a mismatch means some holder
// wrote through a reference it no longer owned.
func (b *Buf) checkPoison() {
	for i, c := range b.data {
		if c != poisonByte {
			panic(fmt.Sprintf(
				"blockbuf: released buffer was written while pooled (byte %d = %#x): use after Release",
				i, c))
		}
	}
}
