package core

import (
	"repro/internal/blockdev"
)

// Mithril is a sporadic-association prefetch predictor in the spirit
// of MITHRIL (Yang et al.): instead of following a chain of
// most-recent transitions like IS_PPM, it *mines* the recent access
// history for block pairs that occur near each other in time — at two
// configurable timescales — and keeps the repeatedly-confirmed pairs
// in a bounded association table. A prediction is "after the block
// just requested, the blocks historically requested close behind it",
// however irregular the gap between their joint appearances.
//
// The design point it covers and the MRU-chain predictors miss: a
// request stream where a recurring group of requests (a web page and
// its embedded assets, a key's index block and its data block) is
// interleaved with unrelated traffic. IS_PPM keys its graph on the
// exact last-j (interval, size) pairs, so any interleaving perturbs
// the key and the chain never re-matches; Mithril keys on the
// *absolute* block and searches a window of the merged stream, so the
// association survives arbitrary interleaving as long as the pair
// lands within the window.
//
// Following the paper's terminology, the miner works on timestamped
// history pairs: every request start carries its logical timestamp
// (its index in the stream), the miner walks the last LongWindow
// entries, and a pair is recorded with double weight when its gap is
// within ShortWindow (the fast timescale) and single weight out to
// LongWindow (the slow timescale). A pair only predicts once its
// accumulated weight reaches MinSupport — one chance co-occurrence is
// noise, sporadic *re*-occurrence is signal.
//
// Memory is strictly bounded: at most MaxRows source blocks, each with
// at most RowWidth candidate successors; a full table displaces the
// least-recently-updated row, exactly like IS_PPM's node bound.
type Mithril struct {
	cfg MithrilConfig

	recent []mithrilEvent
	head   int // ring cursor: next slot to overwrite
	filled int // number of valid entries in recent

	rows table[blockdev.BlockNo, candRow]
}

// MithrilConfig bounds the miner. The zero value selects the defaults.
type MithrilConfig struct {
	// ShortWindow and LongWindow are the two mining timescales, in
	// *requests* of the observed stream (logical time, so the same
	// model works under the simulator clock and the live engine). A
	// pair with gap <= ShortWindow gets weight 2, a pair with gap <=
	// LongWindow weight 1. Defaults 4 and 16.
	ShortWindow int
	LongWindow  int
	// MinSupport is the accumulated weight a pair needs before it
	// predicts. Default 3 (one short-range plus one long-range
	// co-occurrence, or two short-range ones).
	MinSupport uint32
	// MaxRows bounds the association table's source blocks; RowWidth
	// bounds candidates per source. Defaults 4096 and 4.
	MaxRows  int
	RowWidth int
	// MaxChain bounds speculative chain depth per real request, so an
	// aggressive driver cannot walk association cycles forever.
	// Default 8.
	MaxChain int
}

// withDefaults fills unset fields.
func (c MithrilConfig) withDefaults() MithrilConfig {
	if c.ShortWindow <= 0 {
		c.ShortWindow = 4
	}
	if c.LongWindow < c.ShortWindow {
		c.LongWindow = 16
		if c.LongWindow < c.ShortWindow {
			c.LongWindow = c.ShortWindow
		}
	}
	if c.MinSupport == 0 {
		c.MinSupport = 3
	}
	if c.MaxRows <= 0 {
		c.MaxRows = 4096
	}
	if c.RowWidth <= 0 {
		c.RowWidth = 4
	}
	if c.MaxChain <= 0 {
		c.MaxChain = 8
	}
	return c
}

// mithrilEvent is one remembered request start.
type mithrilEvent struct {
	block blockdev.BlockNo
	size  int32
}

// NewMithril returns a miner with the default configuration.
func NewMithril() *Mithril { return NewMithrilConfigured(MithrilConfig{}) }

// NewMithrilConfigured returns a miner with explicit bounds.
func NewMithrilConfigured(cfg MithrilConfig) *Mithril {
	cfg = cfg.withDefaults()
	return &Mithril{
		cfg:    cfg,
		recent: make([]mithrilEvent, cfg.LongWindow),
		rows:   newTable[blockdev.BlockNo, candRow](cfg.MaxRows),
	}
}

// Name identifies the algorithm.
func (*Mithril) Name() string { return "Mithril" }

// RowCount returns the number of association rows currently held.
func (m *Mithril) RowCount() int { return m.rows.len() }

// MaxRows returns the configured row bound (for conformance checks).
func (m *Mithril) MaxRows() int { return m.cfg.MaxRows }

// Observe mines the request against the recent window and appends it.
func (m *Mithril) Observe(r Request, _ Tick) Cursor {
	b := r.Offset

	// Walk the window newest-first; gap g is in requests of the
	// observed stream. Wall/simulated time is deliberately not used —
	// the two clocks tick at wildly different rates and the mining
	// windows are defined over the stream itself.
	for g := 1; g <= m.filled; g++ {
		idx := m.head - g
		if idx < 0 {
			idx += len(m.recent)
		}
		ev := m.recent[idx]
		if ev.block == b {
			continue // self-loops predict nothing useful
		}
		var w uint32 = 1
		if g <= m.cfg.ShortWindow {
			w = 2
		}
		m.rows.update(ev.block).bump(b, r.Size, w, m.cfg.RowWidth)
	}

	m.recent[m.head] = mithrilEvent{block: b, size: r.Size}
	m.head = (m.head + 1) % len(m.recent)
	if m.filled < len(m.recent) {
		m.filled++
	}
	return Cursor{Offset: b, Size: r.Size}
}

// Predict returns the strongest sufficiently-supported association out
// of the cursor's block, advancing the chain one step.
func (m *Mithril) Predict(cur Cursor) (Prediction, Cursor, bool) {
	if int(cur.Depth) >= m.cfg.MaxChain {
		return Prediction{}, cur, false
	}
	row := m.rows.get(cur.Offset)
	if row == nil {
		return Prediction{}, cur, false
	}
	best, ok := row.strongest()
	if !ok || best.weight < m.cfg.MinSupport {
		return Prediction{}, cur, false
	}
	p := Prediction{Request: Request{Offset: best.block, Size: best.size}}
	return p, Cursor{Offset: best.block, Size: best.size, Depth: cur.Depth + 1}, true
}
