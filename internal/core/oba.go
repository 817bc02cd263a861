package core

import "repro/internal/blockdev"

// OBA is the One-Block-Ahead predictor (§2.1): after a request ending
// at block i, it predicts block i+1. It exploits spatial locality
// only; it is the most widely used prefetching rule in sequential and
// parallel file systems and serves as the paper's conservative
// baseline. Its aggressive form reads sequentially from the last
// requested block to the end of the file.
type OBA struct{}

// NewOBA returns a fresh OBA predictor.
func NewOBA() *OBA { return &OBA{} }

// Name identifies the algorithm.
func (*OBA) Name() string { return "OBA" }

// Observe records a user request; OBA keeps no history, the cursor on
// the request is all there is.
func (m *OBA) Observe(r Request, _ Tick) (c Cursor) {
	m.observeTo(r, &c)
	return c
}

func (*OBA) observeTo(r Request, dst *Cursor) { *dst = Cursor{Offset: r.Offset, Size: r.Size} }

// Predict returns the single block following the cursor's request.
func (m *OBA) Predict(c Cursor) (Prediction, Cursor, bool) {
	p, _ := m.predictTo(&c, &c)
	return p, c, true
}

func (*OBA) predictTo(src, dst *Cursor) (Prediction, bool) {
	next := Request{Offset: src.Offset + blockdev.BlockNo(src.Size), Size: 1}
	*dst = Cursor{Offset: next.Offset, Size: 1}
	return Prediction{Request: next}, true
}
