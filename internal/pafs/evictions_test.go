package pafs

import (
	"testing"

	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/sim"
)

// evictionWatch is the optional half of core.Env's contract as a check:
// between two looks, no block may go from Cached to not Cached unless
// Evictions moved. (The xfs and lapcache suites hold their envs to it
// with the same few lines; the envs are unexported, so each is watched
// from inside its package.)
type evictionWatch struct {
	env interface {
		Cached(blockdev.BlockID) bool
		Evictions() uint64
	}
	was   map[blockdev.BlockID]bool
	count uint64
	flips int
}

func (w *evictionWatch) look(t *testing.T, file blockdev.FileID, blocks int) {
	t.Helper()
	count := w.env.Evictions()
	for b := 0; b < blocks; b++ {
		blk := blockdev.BlockID{File: file, Block: blockdev.BlockNo(b)}
		now := w.env.Cached(blk)
		if w.was[blk] && !now {
			w.flips++
			if count == w.count {
				t.Errorf("block %v is no longer cached and the count still stands at %d", blk, count)
			}
		}
		w.was[blk] = now
	}
	w.count = count
}

// TestEnvEvictionCount watches pafsEnv after every event of a run that
// overflows a tiny globally managed cache (eight buffers): a prefetched
// scan, demand fetches in flight and landing, a rewrite, a Drop.
func TestEnvEvictionCount(t *testing.T) {
	const blocks = 48
	e, fs := newFS(core.SpecLnAgrOBA, 2, blocks)
	file := oneFileTrace(blocks).Numbering().File(0) // numbered as fs's trace is
	w := &evictionWatch{env: pafsEnv{fs: fs, server: fs.HomeNode(0), file: file}, was: map[blockdev.BlockID]bool{}}
	run := func() {
		e.RunUntil(func() bool { w.look(t, 0, blocks); return false })
		w.look(t, 0, blocks)
	}
	for b := 0; b < blocks-2; b += 2 {
		fs.Read(blockdev.NodeID(b/2%4), span(0, b, 2), func(sim.Time) {})
		w.look(t, 0, blocks) // the misses are in flight: cached, to the driver
		run()
	}
	fs.Write(1, span(0, 3, 3), func(sim.Time) {})
	run()
	for b := 0; b < blocks; b++ {
		fs.Cch.Drop(file.Slot(blockdev.BlockID{File: 0, Block: blockdev.BlockNo(b)}))
		w.look(t, 0, blocks)
	}
	if w.flips < blocks/2 {
		t.Errorf("only %d blocks were seen leaving the cache: the run watched nothing", w.flips)
	}
}
