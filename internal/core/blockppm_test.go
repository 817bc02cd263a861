package core

import (
	"testing"

	"repro/internal/blockdev"
)

func TestBlockPPMLearnsRepeatedSequence(t *testing.T) {
	m := NewBlockPPM(1)
	// Walk blocks 0..4 twice; after the first pass the successor of
	// each block is known.
	var cur Cursor
	for pass := 0; pass < 2; pass++ {
		for b := 0; b < 5; b++ {
			cur = m.Observe(Request{Offset: blockdev.BlockNo(b), Size: 1}, Tick(pass*5+b+1))
		}
	}
	p, _, ok := m.Predict(cur)
	if !ok {
		t.Fatal("no prediction after two passes")
	}
	// History ends at block 4; on the second pass nothing followed 4
	// yet except... pass 1's 4 was followed by pass 2's 0.
	if p.Offset != 0 || p.Size != 1 {
		t.Errorf("predicted %v, want [0,+1] (the wrap-around)", p.Request)
	}
}

func TestBlockPPMCannotPredictFreshBlocks(t *testing.T) {
	// The paper's §2.2 point: a regular stride over never-accessed
	// blocks predicts nothing under block-PPM, while IS_PPM
	// extrapolates it exactly.
	bp := NewBlockPPM(1)
	is := NewISPPM(1)
	var bpCur, isCur Cursor
	for i := 0; i < 6; i++ {
		r := Request{Offset: blockdev.BlockNo(i * 10), Size: 1}
		bpCur = bp.Observe(r, Tick(i+1))
		isCur = is.Observe(r, Tick(i+1))
	}
	if _, _, ok := bp.Predict(bpCur); ok {
		t.Error("block-PPM predicted a never-accessed block")
	}
	p, _, ok := is.Predict(isCur)
	if !ok || p.Fallback || p.Offset != 60 {
		t.Errorf("IS_PPM failed to extrapolate the stride: %+v ok=%v", p, ok)
	}
}

func TestBlockPPMMostProbableWins(t *testing.T) {
	m := NewBlockPPM(1)
	// After block 5: block 6 twice, block 9 once.
	seq := []blockdev.BlockNo{5, 6, 5, 9, 5, 6}
	var cur Cursor
	for i, b := range seq {
		cur = m.Observe(Request{Offset: b, Size: 1}, Tick(i+1))
	}
	cur = m.Observe(Request{Offset: 5, Size: 1}, 10)
	p, _, ok := m.Predict(cur)
	if !ok || p.Offset != 6 {
		t.Errorf("predicted %v, want block 6 (2 traversals vs 1)", p.Request)
	}
	_ = cur
}

func TestBlockPPMSpansObserveBlockByBlock(t *testing.T) {
	m := NewBlockPPM(1)
	m.Observe(Request{Offset: 0, Size: 4}, 1) // blocks 0,1,2,3
	cur := m.Observe(Request{Offset: 4, Size: 1}, 2)
	p, _, ok := m.Predict(cur)
	// 4 has no successor yet; but 3's successor is 4 etc. History ends
	// at 4: nothing follows → no prediction.
	if ok {
		t.Errorf("predicted %v after unseen tail", p.Request)
	}
	// Re-walk: now 4's successor is known.
	m.Observe(Request{Offset: 0, Size: 4}, 3)
	cur = m.Observe(Request{Offset: 4, Size: 1}, 4)
	p, _, ok = m.Predict(cur)
	if !ok || p.Offset != 0 {
		t.Errorf("predicted %v, want wrap to 0", p.Request)
	}
}

func TestBlockPPMChainWalk(t *testing.T) {
	m := NewBlockPPM(1)
	for pass := 0; pass < 2; pass++ {
		for b := 0; b < 6; b++ {
			m.Observe(Request{Offset: blockdev.BlockNo(b), Size: 1}, Tick(pass*6+b+1))
		}
	}
	cur := m.Observe(Request{Offset: 0, Size: 1}, 20)
	want := []blockdev.BlockNo{1, 2, 3, 4}
	for i, w := range want {
		var p Prediction
		var ok bool
		p, cur, ok = m.Predict(cur)
		if !ok || p.Offset != w {
			t.Fatalf("chain step %d: %+v ok=%v, want block %d", i, p.Request, ok, w)
		}
	}
}

func TestBlockPPMValidation(t *testing.T) {
	for _, order := range []int{0, MaxOrder + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("order %d accepted", order)
				}
			}()
			NewBlockPPM(order)
		}()
	}
	if NewBlockPPM(2).Name() != "BlockPPM:2" {
		t.Error("name wrong")
	}
}

func TestBlockPPMNodeCapBounds(t *testing.T) {
	m := newBlockPPM(1, 8)
	for i := 0; i < 100; i++ {
		m.Observe(Request{Offset: blockdev.BlockNo(i * 7 % 97), Size: 1}, Tick(i+1))
	}
	if m.nodeCount() > 8 {
		t.Errorf("graph grew to %d nodes despite cap", m.nodeCount())
	}
}
