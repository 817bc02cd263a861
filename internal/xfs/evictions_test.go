package xfs

import (
	"testing"

	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/sim"
)

// evictionWatch is the optional half of core.Env's contract as a check:
// between two looks, no block may go from Cached to not Cached unless
// Evictions moved (see the pafs suite's copy).
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

// TestEnvEvictionCount watches node 0's xfsEnv after every event while
// its three-buffer pool overflows: its own scan pushes singlets off to
// other nodes (N-chance forwarding: still cached machine-wide, no
// longer cached here), other nodes' forwards push its blocks out in
// turn, and a neighbour's write invalidates what it holds.
func TestEnvEvictionCount(t *testing.T) {
	const blocks = 48
	e, fs := newFS(core.SpecLnAgrOBA, 3, blocks)
	file := oneFileTrace(blocks).Numbering().File(0) // numbered as fs's trace is
	w := &evictionWatch{env: xfsEnv{fs: fs, node: 0, file: file}, was: map[blockdev.BlockID]bool{}}
	run := func() {
		e.RunUntil(func() bool { w.look(t, 0, blocks); return false })
		w.look(t, 0, blocks)
	}
	for b := 0; b < blocks-2; b += 2 {
		fs.Read(blockdev.NodeID(b/2%2), span(0, b, 2), func(sim.Time) {})
		run()
		if b%8 == 0 {
			fs.Write(1, span(0, b, 2), func(sim.Time) {})
			run()
		}
	}
	if fs.Cch.Stats().Forwards == 0 {
		t.Error("no singlet was ever forwarded")
	}
	if w.flips < blocks/4 {
		t.Errorf("only %d blocks were seen leaving node 0: the run watched nothing", w.flips)
	}
}
