package core

import (
	"testing"

	"repro/internal/blockdev"
)

// observe feeds one request start to the predictor and returns the
// cursor, keeping the test tables readable.
func observe(p Predictor, block blockdev.BlockNo) Cursor {
	return p.Observe(Request{Offset: block, Size: 1}, 0)
}

// TestMithrilLearnsInterleavedPair is the design-point test: a
// recurring pair (10 -> 20) buried in unrelated traffic. An MRU-chain
// predictor keyed on exact history never re-matches; the miner must
// associate the pair as long as both land within the window.
func TestMithrilLearnsInterleavedPair(t *testing.T) {
	m := NewMithril()
	noise := blockdev.BlockNo(100)
	var cur Cursor
	for round := 0; round < 4; round++ {
		observe(m, 10)
		observe(m, noise) // different noise each round
		noise++
		cur = observe(m, 20)
		_ = cur
		observe(m, noise)
		noise++
	}
	cur = observe(m, 10)
	p, next, ok := m.Predict(cur)
	if !ok {
		t.Fatal("no prediction after repeated co-occurrence")
	}
	if p.Request.Offset != 20 {
		t.Fatalf("predicted block %d, want 20", p.Request.Offset)
	}
	if next.Offset != 20 || next.Depth != 1 {
		t.Fatalf("advanced cursor %+v, want block 20 at depth 1", next)
	}
}

// TestMithrilMinSupport: one chance co-occurrence is noise and must
// not predict; MinSupport re-occurrences are signal.
func TestMithrilMinSupport(t *testing.T) {
	m := NewMithrilConfigured(MithrilConfig{MinSupport: 5})
	observe(m, 1)
	cur := observe(m, 2) // weight 2 (short window) < 5
	_ = cur
	cur = observe(m, 1)
	if _, _, ok := m.Predict(cur); ok {
		t.Fatal("predicted from a single co-occurrence")
	}
	// Further confirmations push the pair past the threshold.
	observe(m, 2)
	observe(m, 1)
	cur = observe(m, 2)
	_ = cur
	cur = observe(m, 1)
	p, _, ok := m.Predict(cur)
	if !ok || p.Request.Offset != 2 {
		t.Fatalf("want prediction of block 2 after support builds, got ok=%v p=%+v", ok, p)
	}
}

// TestMithrilRowBound: the association table must never exceed
// MaxRows however many distinct blocks stream past.
func TestMithrilRowBound(t *testing.T) {
	m := NewMithrilConfigured(MithrilConfig{MaxRows: 8})
	for b := blockdev.BlockNo(0); b < 1000; b++ {
		observe(m, b)
	}
	if m.RowCount() > m.MaxRows() {
		t.Fatalf("RowCount %d exceeds MaxRows %d", m.RowCount(), m.MaxRows())
	}
	if m.MaxRows() != 8 {
		t.Fatalf("MaxRows = %d, want 8", m.MaxRows())
	}
}

// TestMithrilChainDepth: speculative chains must stop at MaxChain even
// over a strongly-associated cycle (1 -> 2 -> 1 -> ...), so an
// aggressive driver cannot spin forever.
func TestMithrilChainDepth(t *testing.T) {
	m := NewMithrilConfigured(MithrilConfig{MaxChain: 3})
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
		if steps > 3 {
			t.Fatalf("chain ran %d steps, cap is 3", steps)
		}
	}
	if steps != 3 {
		t.Fatalf("chain length %d, want exactly MaxChain=3 over a cycle", steps)
	}
}

// TestMithrilSelfLoopsIgnored: a block re-requested back to back must
// not become its own successor.
func TestMithrilSelfLoopsIgnored(t *testing.T) {
	m := NewMithril()
	var cur Cursor
	for i := 0; i < 32; i++ {
		cur = observe(m, 7)
	}
	if _, _, ok := m.Predict(cur); ok {
		t.Fatal("self-loop predicted")
	}
}

// TestMithrilForeignCursor: a cursor is a plain position, so one taken
// from another predictor is valid input — no crash, and nothing
// predicted from it by a table that has learned nothing.
func TestMithrilForeignCursor(t *testing.T) {
	foreign := feed(NewISPPM(3), []Request{{0, 1}, {4, 2}, {8, 1}, {12, 2}})
	if _, _, ok := NewMithril().Predict(foreign); ok {
		t.Fatal("predicted from an empty table")
	}
}

// TestMithrilRowWidthDisplacement: a row under pressure keeps its
// heavy hitters; a persistently re-confirmed newcomer displaces the
// weakest candidate rather than growing the row.
func TestMithrilRowWidthDisplacement(t *testing.T) {
	m := NewMithrilConfigured(MithrilConfig{RowWidth: 2, ShortWindow: 1, LongWindow: 1, MinSupport: 2})
	// Strong pair 1 -> 2.
	for i := 0; i < 8; i++ {
		observe(m, 1)
		observe(m, 2)
	}
	// Burst of one-off successors; the row must stay width 2 and the
	// strong pair must survive the churn.
	for b := blockdev.BlockNo(50); b < 60; b++ {
		observe(m, 1)
		observe(m, b)
	}
	row := m.rows.get(1)
	if row == nil {
		t.Fatal("row for block 1 evicted")
	}
	if len(*row) > 2 {
		t.Fatalf("row width %d exceeds bound 2", len(*row))
	}
	cur := observe(m, 1)
	p, _, ok := m.Predict(cur)
	if !ok || p.Request.Offset != 2 {
		t.Fatalf("heavy hitter lost under churn: ok=%v p=%+v", ok, p)
	}
}
