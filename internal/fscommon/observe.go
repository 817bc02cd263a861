package fscommon

import (
	"fmt"

	"repro/internal/blockdev"
)

// PrefetchBegin records that a prefetch disk operation for blk is now
// physically in flight (queued or in service).
func (b *Base) PrefetchBegin(blk blockdev.BlockID) {
	b.pfInflight[b.num.Slot(blk)]++
}

// PrefetchEnd records that a prefetch operation for blk left the disk
// subsystem, by completing or by being dropped from the queue.
func (b *Base) PrefetchEnd(blk blockdev.BlockID) {
	n := &b.pfInflight[b.num.Slot(blk)]
	if *n == 0 {
		panic(fmt.Sprintf("fscommon: prefetch inflight count for %v went negative", blk))
	}
	*n--
}

// PrefetchInFlight reports whether a prefetch of blk is pending.
func (b *Base) PrefetchInFlight(blk blockdev.BlockID) bool {
	return b.pfInflight[b.num.Slot(blk)] > 0
}
