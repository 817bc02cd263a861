package fscommon

import (
	"fmt"
)

// PrefetchBegin records that a prefetch disk operation for the block
// in slot is now physically in flight (queued or in service).
func (b *Base) PrefetchBegin(slot int32) {
	b.pfInflight[slot]++
}

// PrefetchEnd records that a prefetch operation for the block in slot
// left the disk subsystem, by completing or by being dropped from the
// queue.
func (b *Base) PrefetchEnd(slot int32) {
	n := &b.pfInflight[slot]
	if *n == 0 {
		panic(fmt.Sprintf("fscommon: prefetch inflight count for %v went negative", b.num.Block(slot)))
	}
	*n--
}

// PrefetchInFlight reports whether a prefetch of the block in slot is
// pending.
func (b *Base) PrefetchInFlight(slot int32) bool {
	return b.pfInflight[slot] > 0
}
