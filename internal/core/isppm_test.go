package core

import (
	"testing"

	"repro/internal/blockdev"
)

// paperPattern is the access pattern of the paper's Figure 1 in
// 0-indexed blocks: a 2-block request, a 3-block request 3 blocks
// further, a 2-block request 5 blocks further, repeating.
func paperPattern(n int) []Request {
	reqs := []Request{{Offset: 0, Size: 2}}
	off := blockdev.BlockNo(0)
	for len(reqs) < n {
		off += 3
		reqs = append(reqs, Request{Offset: off, Size: 3})
		if len(reqs) == n {
			break
		}
		off += 5
		reqs = append(reqs, Request{Offset: off, Size: 2})
	}
	return reqs
}

// feed observes the requests in order at times 1, 2, 3, ... and
// returns the final cursor.
func feed(p Predictor, reqs []Request) Cursor {
	var cur Cursor
	for i, r := range reqs {
		cur = p.Observe(r, Tick(i+1))
	}
	return cur
}

func TestISPPMBuildsPaperFigure2Graph(t *testing.T) {
	m := NewISPPM(1)
	reqs := paperPattern(5) // t1..t5 of Figure 2
	feed(m, reqs)
	// Nodes (I=3,S=3) and (I=5,S=2) must exist with mutual links.
	if m.nodeCount() != 2 {
		t.Fatalf("graph has %d nodes, want 2", m.nodeCount())
	}
	i1, s1, ok := m.mostRecentLink([][2]int32{{3, 3}})
	if !ok || i1 != 5 || s1 != 2 {
		t.Errorf("link from (3,3) = (%d,%d,%v), want (5,2,true)", i1, s1, ok)
	}
	i2, s2, ok := m.mostRecentLink([][2]int32{{5, 2}})
	if !ok || i2 != 3 || s2 != 3 {
		t.Errorf("link from (5,2) = (%d,%d,%v), want (3,3,true)", i2, s2, ok)
	}
}

func TestISPPMPredictsPaperFifthRequest(t *testing.T) {
	// §2.2: after the fourth request the system predicts the fifth
	// from node (I=3,S=3): jump 5 from the fourth request's offset and
	// read 2 blocks.
	m := NewISPPM(1)
	reqs := paperPattern(4)
	cur := feed(m, reqs)
	p, _, ok := m.Predict(cur)
	if !ok {
		t.Fatal("no prediction after four requests")
	}
	if p.Fallback {
		t.Error("graph prediction marked as fallback")
	}
	want := Request{Offset: reqs[3].Offset + 5, Size: 2}
	if p.Request != want {
		t.Errorf("predicted %v, want %v", p.Request, want)
	}
}

func TestISPPMChainWalksWholePattern(t *testing.T) {
	// Once the pattern is learned, speculative prediction must follow
	// it indefinitely: (…,+3,3 blocks), (…,+5,2 blocks), …
	m := NewISPPM(1)
	reqs := paperPattern(6)
	cur := feed(m, reqs)
	// Last observed request is reqs[5] = 3-block request; the chain
	// must continue +5/2, +3/3, +5/2 …
	wantOffsets := []blockdev.BlockNo{
		reqs[5].Offset + 5,
		reqs[5].Offset + 5 + 3,
		reqs[5].Offset + 5 + 3 + 5,
	}
	wantSizes := []int32{2, 3, 2}
	for i := range wantOffsets {
		var p Prediction
		var ok bool
		p, cur, ok = m.Predict(cur)
		if !ok {
			t.Fatalf("chain died at step %d", i)
		}
		if p.Fallback {
			t.Fatalf("step %d fell back to OBA", i)
		}
		if p.Offset != wantOffsets[i] || p.Size != wantSizes[i] {
			t.Errorf("step %d: predicted %v, want [%d,+%d]", i, p.Request, wantOffsets[i], wantSizes[i])
		}
	}
}

func TestISPPMThirdOrderBuildsFigure3Graph(t *testing.T) {
	// Figure 3: the 3rd-order predictor's nodes are the two
	// alternating 3-pair histories linked to each other.
	m := NewISPPM(3)
	feed(m, paperPattern(8))
	if m.nodeCount() != 2 {
		t.Fatalf("3rd-order graph has %d nodes, want 2", m.nodeCount())
	}
	// History (3,3),(5,2),(3,3) must link to a node ending (5,2).
	i, s, ok := m.mostRecentLink([][2]int32{{3, 3}, {5, 2}, {3, 3}})
	if !ok || i != 5 || s != 2 {
		t.Errorf("link = (%d,%d,%v), want (5,2,true)", i, s, ok)
	}
	i, s, ok = m.mostRecentLink([][2]int32{{5, 2}, {3, 3}, {5, 2}})
	if !ok || i != 3 || s != 3 {
		t.Errorf("link = (%d,%d,%v), want (3,3,true)", i, s, ok)
	}
}

func TestISPPMThirdOrderPredicts(t *testing.T) {
	m := NewISPPM(3)
	reqs := paperPattern(8)
	cur := feed(m, reqs)
	p, _, ok := m.Predict(cur)
	if !ok || p.Fallback {
		t.Fatalf("3rd-order prediction failed (ok=%v fallback=%v)", ok, p.Fallback)
	}
	// reqs[7] is a 3-block request; next is +5, 2 blocks.
	want := Request{Offset: reqs[7].Offset + 5, Size: 2}
	if p.Request != want {
		t.Errorf("predicted %v, want %v", p.Request, want)
	}
}

func TestISPPMFirstRequestFallsBack(t *testing.T) {
	m := NewISPPM(1)
	cur := m.Observe(Request{Offset: 7, Size: 2}, 1)
	p, _, ok := m.Predict(cur)
	if !ok {
		t.Fatal("no prediction at cold start")
	}
	if !p.Fallback {
		t.Error("cold-start prediction not marked fallback")
	}
	if p.Offset != 9 || p.Size != 1 {
		t.Errorf("fallback predicted %v, want [9,+1] (OBA rule)", p.Request)
	}
}

func TestISPPMFallbackChainIsSequential(t *testing.T) {
	m := NewISPPM(2)
	cur := m.Observe(Request{Offset: 0, Size: 4}, 1)
	offsets := []blockdev.BlockNo{}
	for i := 0; i < 3; i++ {
		var p Prediction
		var ok bool
		p, cur, ok = m.Predict(cur)
		if !ok || !p.Fallback {
			t.Fatalf("fallback chain broke at %d", i)
		}
		offsets = append(offsets, p.Offset)
	}
	want := []blockdev.BlockNo{4, 5, 6}
	for i := range want {
		if offsets[i] != want[i] {
			t.Errorf("fallback chain = %v, want %v", offsets, want)
		}
	}
}

func TestISPPMMostRecentLinkWins(t *testing.T) {
	// Teach (0,1)->(10,1) first, then (0,1)->(20,1): the newer link
	// must drive the prediction (the paper's MRU rule, not counts).
	m := NewISPPM(1)
	m.Observe(Request{Offset: 0, Size: 1}, 1)
	m.Observe(Request{Offset: 0, Size: 1}, 2)  // pair (0,1)
	m.Observe(Request{Offset: 10, Size: 1}, 3) // (0,1) -> (10,1)
	// Re-establish state (0,1): offset goes 10 -> 10.
	m.Observe(Request{Offset: 10, Size: 1}, 4)        // (0,1) after (10,1)
	cur := m.Observe(Request{Offset: 30, Size: 1}, 5) // (0,1) -> (20,1) newer
	// Current pair is (20,1); teach nothing more. Build state (0,1):
	cur = m.Observe(Request{Offset: 30, Size: 1}, 6) // pair (0,1)
	p, _, ok := m.Predict(cur)
	if !ok || p.Fallback {
		t.Fatalf("prediction failed: ok=%v fallback=%v", ok, p.Fallback)
	}
	if p.Offset != 50 {
		t.Errorf("predicted offset %d, want 50 (MRU link +20, not +10)", p.Offset)
	}
}

func TestISPPMRepeatedLinkRefreshesTimestamp(t *testing.T) {
	// Re-traversing an old link must make it most recent again.
	m := NewISPPM(1)
	m.Observe(Request{Offset: 0, Size: 1}, 1)
	m.Observe(Request{Offset: 0, Size: 1}, 2)  // (0,1)
	m.Observe(Request{Offset: 10, Size: 1}, 3) // (0,1)->(10,1) @3
	m.Observe(Request{Offset: 10, Size: 1}, 4) // (10,1)... pair (0,1)
	m.Observe(Request{Offset: 30, Size: 1}, 5) // (0,1)->(20,1) @5
	m.Observe(Request{Offset: 30, Size: 1}, 6) // pair (0,1)
	m.Observe(Request{Offset: 40, Size: 1}, 7) // (0,1)->(10,1) @7 refresh
	cur := m.Observe(Request{Offset: 40, Size: 1}, 8)
	p, _, _ := m.Predict(cur)
	if p.Offset != 50 {
		t.Errorf("predicted offset %d, want 50 (refreshed +10 link)", p.Offset)
	}
}

func TestISPPMPredictsNeverAccessedBlocks(t *testing.T) {
	// The key difference from block-PPM (§2.2): interval prediction
	// extrapolates to blocks never seen before.
	m := NewISPPM(1)
	var cur Cursor
	off := blockdev.BlockNo(0)
	for i := 0; i < 6; i++ {
		cur = m.Observe(Request{Offset: off, Size: 1}, Tick(i+1))
		off += 100
	}
	p, _, ok := m.Predict(cur)
	if !ok || p.Fallback {
		t.Fatal("stride not learned")
	}
	if p.Offset != 600 {
		t.Errorf("predicted %d, want 600 (never-accessed block)", p.Offset)
	}
}

func TestISPPMNegativeIntervals(t *testing.T) {
	// A backward-jumping pattern must be representable.
	m := NewISPPM(1)
	seq := []Request{{100, 1}, {50, 1}, {100, 1}, {50, 1}, {100, 1}}
	var cur Cursor
	for i, r := range seq {
		cur = m.Observe(r, Tick(i+1))
	}
	p, _, ok := m.Predict(cur)
	if !ok || p.Fallback {
		t.Fatal("alternating pattern not learned")
	}
	if p.Offset != 50 {
		t.Errorf("predicted %d, want 50 (backward jump)", p.Offset)
	}
}

func TestISPPMNodeCapBoundsGraph(t *testing.T) {
	m := newISPPMSized(1, 4)
	// Random-ish walk creating many distinct (interval, size) pairs.
	off := blockdev.BlockNo(0)
	for i := 1; i <= 100; i++ {
		m.Observe(Request{Offset: off, Size: int32(i%7 + 1)}, Tick(i))
		off += blockdev.BlockNo(i % 13)
	}
	if m.nodeCount() > 4 {
		t.Errorf("graph grew to %d nodes despite cap 4", m.nodeCount())
	}
}

func TestISPPMConstructorValidation(t *testing.T) {
	for _, order := range []int{0, -1, MaxOrder + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewISPPM(%d) did not panic", order)
				}
			}()
			NewISPPM(order)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("newISPPMSized(1,0) did not panic")
			}
		}()
		newISPPMSized(1, 0)
	}()
}

func TestISPPMName(t *testing.T) {
	if NewISPPM(1).Name() != "IS_PPM:1" || NewISPPM(3).Name() != "IS_PPM:3" {
		t.Error("names wrong")
	}
}

func TestISPPMMostRecentLinkWrongOrder(t *testing.T) {
	m := NewISPPM(2)
	if _, _, ok := m.mostRecentLink([][2]int32{{1, 1}}); ok {
		t.Error("mostRecentLink accepted wrong-length history")
	}
}

func TestISPPMSpeculativeCursorDoesNotMutateGraph(t *testing.T) {
	m := NewISPPM(1)
	cur := feed(m, paperPattern(5))
	before := m.nodeCount()
	for i := 0; i < 10; i++ {
		_, cur, _ = m.Predict(cur)
	}
	if m.nodeCount() != before {
		t.Errorf("speculative walk changed graph: %d -> %d nodes", before, m.nodeCount())
	}
}

func TestISPPMMostProbableLinkPolicy(t *testing.T) {
	// Teach (0,1)->(10,1) twice and (0,1)->(20,1) once (most recent).
	// The most-probable policy must pick +10, the MRU policy +20.
	teach := func() *ISPPM {
		m := NewISPPM(1)
		m.Observe(Request{Offset: 0, Size: 1}, 1)
		m.Observe(Request{Offset: 0, Size: 1}, 2)  // pair (0,1)
		m.Observe(Request{Offset: 10, Size: 1}, 3) // (0,1)->(10,1) #1
		m.Observe(Request{Offset: 10, Size: 1}, 4) // pair (0,1)
		m.Observe(Request{Offset: 20, Size: 1}, 5) // (0,1)->(10,1) #2
		m.Observe(Request{Offset: 20, Size: 1}, 6) // pair (0,1)
		m.Observe(Request{Offset: 40, Size: 1}, 7) // (0,1)->(20,1) #1, most recent
		return m
	}
	cursor := Cursor{hist: histKey{n: 1, p: [MaxOrder]pair{{0, 1}}}, Offset: 100, Size: 1}

	mru := teach()
	p, _, ok := mru.Predict(cursor)
	if !ok || p.Offset != 120 {
		t.Errorf("MRU policy predicted offset %d (ok=%v), want 120", p.Offset, ok)
	}
	prob := teach()
	prob.SetLinkPolicy(MostProbableLinkPolicy)
	p, _, ok = prob.Predict(cursor)
	if !ok || p.Offset != 110 {
		t.Errorf("most-probable policy predicted offset %d (ok=%v), want 110", p.Offset, ok)
	}
}

func TestISPPMNoFallback(t *testing.T) {
	m := NewISPPM(1)
	m.SetFallback(false)
	cur := m.Observe(Request{Offset: 0, Size: 2}, 1)
	if _, _, ok := m.Predict(cur); ok {
		t.Error("prediction produced with fallback disabled and empty graph")
	}
	m.SetFallback(true)
	p, _, ok := m.Predict(cur)
	if !ok || !p.Fallback {
		t.Error("fallback re-enable failed")
	}
}

func TestISPPMPatternChangeRelearns(t *testing.T) {
	m := NewISPPM(1)
	// Learn stride 10, then switch to stride 4; after enough new
	// observations the prediction must follow the new stride.
	var cur Cursor
	off := blockdev.BlockNo(0)
	now := Tick(1)
	for i := 0; i < 5; i++ {
		cur = m.Observe(Request{Offset: off, Size: 1}, now)
		off += 10
		now++
	}
	for i := 0; i < 5; i++ {
		cur = m.Observe(Request{Offset: off, Size: 1}, now)
		off += 4
		now++
	}
	p, _, ok := m.Predict(cur)
	if !ok || p.Fallback {
		t.Fatal("no prediction after pattern change")
	}
	if p.Offset != off {
		t.Errorf("predicted %d, want %d (new stride 4)", p.Offset, off)
	}
}
