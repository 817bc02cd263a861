package core

import (
	"fmt"

	"repro/internal/blockdev"
)

// BlockPPM is the original Vitter & Krishnan prediction-by-partial-
// match baseline, at block granularity: the graph's nodes are the last
// j *block numbers* accessed (not offset intervals), and prediction
// follows the most-traversed link, as in their paper. The paper's §2.2
// derives IS_PPM from it and argues two shortcomings for file
// prefetching, both of which this implementation makes measurable:
//
//   - a block must have been accessed once before it can ever be
//     predicted, so regular patterns over fresh data predict nothing
//     (IS_PPM extrapolates intervals instead);
//   - it predicts one block at a time, never a request size.
//
// It is provided as a related-work baseline for the ablation table
// (study modelling); the paper's figures do not include it.
type BlockPPM struct {
	order int
	// nodes is keyed by the last j accessed block numbers, most recent
	// last. The key is IS_PPM's window type with a block number in each
	// pair (blockPair), so both predictors use the cursor's one window,
	// and IS_PPM's node, whose links here add the next block's pair.
	nodes table

	started bool
	hist    histKey
}

// blockPair is a block number as a window element.
func blockPair(b blockdev.BlockNo) pair { return pair{interval: int32(b)} }

// NewBlockPPM returns an order-j block-granularity PPM predictor with
// the default graph bound. It panics unless 1 <= order <= MaxOrder.
func NewBlockPPM(order int) *BlockPPM { return newBlockPPM(order, DefaultMaxNodes) }

func newBlockPPM(order, maxNodes int) *BlockPPM {
	if order < 1 || order > MaxOrder {
		panic(fmt.Sprintf("core: BlockPPM order %d outside [1,%d]", order, MaxOrder))
	}
	return &BlockPPM{order: order, nodes: newTable(maxNodes)}
}

// Name identifies the algorithm, e.g. "BlockPPM:1".
func (m *BlockPPM) Name() string { return fmt.Sprintf("BlockPPM:%d", m.order) }

// nodeCount returns the number of graph nodes.
func (m *BlockPPM) nodeCount() int { return m.nodes.len() }

// Observe records the blocks of a real request, one by one, as the
// original paging-oriented algorithm would see them.
func (m *BlockPPM) Observe(r Request, _ Tick) (c Cursor) {
	m.observeTo(r, &c)
	return c
}

func (m *BlockPPM) observeTo(r Request, dst *Cursor) {
	for b := r.Offset; b < r.End(); b++ {
		if m.started && m.hist.full(m.order) {
			m.nodes.at(m.nodes.update(&m.hist)).setLink(blockPair(b))
		}
		m.hist.shiftFrom(&m.hist, blockPair(b), m.order)
		m.started = true
	}
	dst.Offset, dst.Size, dst.hist = r.Offset, r.Size, m.hist
}

// Predict returns the most frequent successor of the cursor's history,
// always a single block (the original algorithm prefetches one page).
// There is no fallback: unseen histories predict nothing — exactly the
// cold-start weakness IS_PPM's interval model removes.
func (m *BlockPPM) Predict(cur Cursor) (Prediction, Cursor, bool) {
	p, ok := m.predictTo(&cur, &cur)
	return p, cur, ok
}

func (m *BlockPPM) predictTo(src, dst *Cursor) (Prediction, bool) {
	if src.hist.full(m.order) {
		if nd := m.nodes.get(&src.hist); nd != nil {
			if next, ok := nd.successor(MostProbableLinkPolicy); ok {
				b := blockdev.BlockNo(next.interval)
				dst.Offset, dst.Size = b, 1
				dst.hist.shiftFrom(&src.hist, next, m.order)
				return Prediction{Request: Request{Offset: b, Size: 1}}, true
			}
		}
	}
	return Prediction{}, false
}
