package core

import (
	"testing"

	"repro/internal/blockdev"
)

// TestMarkovLearnsDominantSuccessor: when one successor dominates a
// row, it is predicted; the occasional alternative is not.
func TestMarkovLearnsDominantSuccessor(t *testing.T) {
	m := NewMarkov()
	var cur Cursor
	for i := 0; i < 12; i++ {
		observe(m, 1)
		if i%4 == 3 {
			observe(m, 3) // minority successor
		} else {
			observe(m, 2) // dominant successor
		}
	}
	cur = observe(m, 1)
	p, _, ok := m.Predict(cur)
	if !ok {
		t.Fatal("no prediction from a learned row")
	}
	if p.Request.Offset != 2 {
		t.Fatalf("predicted %d, want the dominant successor 2", p.Request.Offset)
	}
}

// TestMarkovProbabilityGate: a coin-flip row must not predict when the
// threshold demands better than a coin flip — a transition that is
// merely the most recent is not worth prefetching.
func TestMarkovProbabilityGate(t *testing.T) {
	m := NewMarkovConfigured(MarkovConfig{MinProbPct: 60})
	for i := 0; i < 10; i++ {
		observe(m, 1)
		observe(m, 2)
		observe(m, 1)
		observe(m, 3)
	}
	cur := observe(m, 1)
	if p, _, ok := m.Predict(cur); ok {
		t.Fatalf("predicted %d from a ~50/50 row with a 60%% gate", p.Request.Offset)
	}
}

// TestMarkovAgingTracksShift: after the workload's dominant transition
// changes, aging must let the new winner overtake the stale one
// instead of the lifetime counts pinning the argmax forever.
func TestMarkovAgingTracksShift(t *testing.T) {
	m := NewMarkovConfigured(MarkovConfig{AgeThreshold: 8})
	for i := 0; i < 20; i++ { // old regime: 1 -> 2
		observe(m, 1)
		observe(m, 2)
	}
	for i := 0; i < 20; i++ { // new regime: 1 -> 5
		observe(m, 1)
		observe(m, 5)
	}
	cur := observe(m, 1)
	p, _, ok := m.Predict(cur)
	if !ok || p.Request.Offset != 5 {
		t.Fatalf("stale transition still wins after regime shift: ok=%v p=%+v", ok, p)
	}
}

// TestMarkovRowBound: the matrix must never exceed MaxRows states.
func TestMarkovRowBound(t *testing.T) {
	m := NewMarkovConfigured(MarkovConfig{MaxRows: 8})
	for b := blockdev.BlockNo(0); b < 1000; b++ {
		observe(m, b)
	}
	if m.RowCount() > m.MaxRows() {
		t.Fatalf("RowCount %d exceeds MaxRows %d", m.RowCount(), m.MaxRows())
	}
}

// TestMarkovChainDepth: most-probable chains stop at MaxChain over a
// cycle.
func TestMarkovChainDepth(t *testing.T) {
	m := NewMarkovConfigured(MarkovConfig{MaxChain: 4})
	var cur Cursor
	for i := 0; i < 16; i++ {
		observe(m, 1)
		cur = observe(m, 2)
	}
	cur = observe(m, 1)
	steps := 0
	for {
		_, next, ok := m.Predict(cur)
		if !ok {
			break
		}
		cur = next
		steps++
		if steps > 4 {
			t.Fatalf("chain ran %d steps, cap is 4", steps)
		}
	}
	if steps != 4 {
		t.Fatalf("chain length %d, want exactly MaxChain=4 over a cycle", steps)
	}
}

// TestMarkovSelfTransitionsIgnored: a block re-requested back to back
// must not become its own successor.
func TestMarkovSelfTransitionsIgnored(t *testing.T) {
	m := NewMarkov()
	var cur Cursor
	for i := 0; i < 32; i++ {
		cur = observe(m, 7)
	}
	if _, _, ok := m.Predict(cur); ok {
		t.Fatal("self-transition predicted")
	}
}

// TestMarkovForeignCursor: a cursor is a plain position, so one taken
// from another predictor is valid input — no crash, and nothing
// predicted from it by a matrix that has learned nothing.
func TestMarkovForeignCursor(t *testing.T) {
	foreign := feed(NewISPPM(3), []Request{{0, 1}, {4, 2}, {8, 1}, {12, 2}})
	if _, _, ok := NewMarkov().Predict(foreign); ok {
		t.Fatal("predicted from an empty matrix")
	}
}

// TestMarkovRowWidthDisplacement: a full row keeps its heavy hitter
// while one-off successors churn through the weakest slot.
func TestMarkovRowWidthDisplacement(t *testing.T) {
	m := NewMarkovConfigured(MarkovConfig{RowWidth: 2, MinProbPct: 1, AgeThreshold: 1 << 30})
	for i := 0; i < 16; i++ {
		observe(m, 1)
		observe(m, 2)
	}
	for b := blockdev.BlockNo(50); b < 60; b++ {
		observe(m, 1)
		observe(m, b)
	}
	row := m.rows.get(1)
	if row == nil {
		t.Fatal("row for block 1 evicted")
	}
	if len(row.cands) > 2 {
		t.Fatalf("row width %d exceeds bound 2", len(row.cands))
	}
	cur := observe(m, 1)
	p, _, ok := m.Predict(cur)
	if !ok || p.Request.Offset != 2 {
		t.Fatalf("heavy hitter lost under churn: ok=%v p=%+v", ok, p)
	}
}
