package fscommon

import (
	"testing"

	"repro/internal/blockdev"
)

func TestPrefetchInflightWindow(t *testing.T) {
	b := &Base{pfInflight: make(map[blockdev.BlockID]int)}
	blk := blockdev.BlockID{File: 1, Block: 7}
	if b.PrefetchInFlight(blk) {
		t.Error("in flight before begin")
	}
	b.PrefetchBegin(blk)
	if !b.PrefetchInFlight(blk) {
		t.Error("not in flight after begin")
	}
	b.PrefetchEnd(blk)
	if b.PrefetchInFlight(blk) {
		t.Error("still in flight after end")
	}
	if len(b.pfInflight) != 0 {
		t.Error("completed entry not removed")
	}
}

func TestWrapPrefetchCancelClosesWindow(t *testing.T) {
	b := &Base{pfInflight: make(map[blockdev.BlockID]int)}
	blk := blockdev.BlockID{File: 3, Block: 1}

	if b.WrapPrefetchCancel(blk, nil) != nil {
		t.Error("nil hook should stay nil")
	}

	// A live (non-cancelled) operation keeps its window open; the
	// completion callback is what closes it.
	b.PrefetchBegin(blk)
	live := b.WrapPrefetchCancel(blk, func() bool { return false })
	if live() {
		t.Error("live operation reported cancelled")
	}
	if !b.PrefetchInFlight(blk) {
		t.Error("live operation lost its window")
	}
	b.PrefetchEnd(blk)

	// A cancelled operation never completes, so the wrapper must close
	// the window when the disk polls the hook.
	b.PrefetchBegin(blk)
	dropped := b.WrapPrefetchCancel(blk, func() bool { return true })
	if !dropped() {
		t.Error("cancelled operation reported live")
	}
	if b.PrefetchInFlight(blk) {
		t.Error("cancelled operation left its window open")
	}
}
