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
// It is provided as a related-work baseline for benchmarks and the
// offline evaluator; the paper's figures do not include it.
type BlockPPM struct {
	order int
	// nodes is keyed by the last j accessed block numbers, most recent
	// last. The key is IS_PPM's window type with a block number in each
	// pair (blockPair), so both predictors use the cursor's one window.
	nodes table[histKey, blockNode]

	started bool
	hist    histKey
}

// blockPair is a block number as a window element.
func blockPair(b blockdev.BlockNo) pair { return pair{interval: int32(b)} }

// blockNode counts successors of one history.
type blockNode struct {
	counts   map[blockdev.BlockNo]uint32
	top      blockdev.BlockNo
	topCount uint32
}

// NewBlockPPM returns an order-j block-granularity PPM predictor with
// the default graph bound. It panics unless 1 <= order <= MaxOrder.
func NewBlockPPM(order int) *BlockPPM { return newBlockPPM(order, DefaultMaxNodes) }

func newBlockPPM(order, maxNodes int) *BlockPPM {
	if order < 1 || order > MaxOrder {
		panic(fmt.Sprintf("core: BlockPPM order %d outside [1,%d]", order, MaxOrder))
	}
	return &BlockPPM{order: order, nodes: newTable[histKey, blockNode](maxNodes)}
}

// Name identifies the algorithm, e.g. "BlockPPM:1".
func (m *BlockPPM) Name() string { return fmt.Sprintf("BlockPPM:%d", m.order) }

// Order returns the Markov order.
func (m *BlockPPM) Order() int { return m.order }

// NodeCount returns the number of graph nodes.
func (m *BlockPPM) NodeCount() int { return m.nodes.len() }

// Observe records the blocks of a real request, one by one, as the
// original paging-oriented algorithm would see them.
func (m *BlockPPM) Observe(r Request, _ Tick) Cursor {
	for b := r.Offset; b < r.End(); b++ {
		if m.started && m.hist.full(m.order) {
			nd := m.nodes.update(m.hist)
			if nd.counts == nil {
				nd.counts = make(map[blockdev.BlockNo]uint32)
			}
			nd.counts[b]++
			if c := nd.counts[b]; c > nd.topCount {
				nd.top = b
				nd.topCount = c
			}
		}
		m.hist = m.hist.shift(blockPair(b), m.order)
		m.started = true
	}
	return Cursor{Offset: r.Offset, Size: r.Size, hist: m.hist}
}

// Predict returns the most frequent successor of the cursor's history,
// always a single block (the original algorithm prefetches one page).
// There is no fallback: unseen histories predict nothing — exactly the
// cold-start weakness IS_PPM's interval model removes.
func (m *BlockPPM) Predict(cur Cursor) (Prediction, Cursor, bool) {
	if !cur.hist.full(m.order) {
		return Prediction{}, cur, false
	}
	nd := m.nodes.get(cur.hist)
	if nd == nil || nd.topCount == 0 {
		return Prediction{}, cur, false
	}
	p := Prediction{Request: Request{Offset: nd.top, Size: 1}}
	return p, Cursor{Offset: nd.top, Size: 1, hist: cur.hist.shift(blockPair(nd.top), m.order)}, true
}
