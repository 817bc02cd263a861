package core

import (
	"fmt"

	"repro/internal/blockdev"
)

// MaxOrder bounds the Markov order of IS_PPM predictors; the paper
// evaluates orders 1 and 3, and the fixed bound keeps history keys
// comparable (array-valued) and allocation-free.
const MaxOrder = 8

// DefaultMaxNodes bounds one file's pattern graph; when exceeded, the
// least-recently-updated node is discarded (see table). Real access
// patterns in both workloads need far fewer nodes.
const DefaultMaxNodes = 4096

// pair is one element of the modelled access stream: the offset
// interval from the previous request (in blocks, may be negative) and
// the request size (in blocks).
type pair struct {
	interval int32
	size     int32
}

// histKey identifies a graph node: the last `n` (interval, size) pairs
// of the stream, most recent last. It is a value type usable as a map
// key.
type histKey struct {
	n int8
	p [MaxOrder]pair
}

// shift returns the key advanced by one more pair, dropping the oldest
// when the window is full.
func (k histKey) shift(pr pair, order int) histKey {
	k.shiftFrom(&k, pr, order)
	return k
}

// shiftFrom sets k to src advanced by one more pair, byte for byte what
// src.shift(pr, order) returns. k may be src.
func (k *histKey) shiftFrom(src *histKey, pr pair, order int) {
	if k != src {
		*k = *src
	}
	if int(k.n) < order {
		k.p[k.n] = pr
		k.n++
		return
	}
	copy(k.p[:order-1], k.p[1:order])
	k.p[order-1] = pr
}

// full reports whether the key holds a complete order-length history.
func (k histKey) full(order int) bool { return int(k.n) >= order }

// LinkPolicy selects which outgoing graph link drives a prediction.
// The zero value follows the most recently traversed link — the
// paper's choice, which it found more accurate than counts for file
// access (§2.2).
type LinkPolicy int

// MostProbableLinkPolicy follows the most traversed link — the
// original Vitter & Krishnan PPM heuristic, kept for the ablation
// benchmarks.
const MostProbableLinkPolicy LinkPolicy = 1

// node is one vertex of the pattern graph. Its outgoing links are
// counted and the last one traversed is remembered (mru and top mean
// something once the node has a link); prediction follows the
// configured link policy. A link is keyed by the pair it adds: its
// target is always the source's window shifted by that pair, so the
// pair is all a prediction needs.
//
// Most nodes only ever get one link, so the first is held inline and
// the map, which finds any other in constant time however many there
// are, is made when a second arrives.
type node struct {
	first      pair   // the node's first link
	firstCount uint32 // its count; 0 when the node has no link
	topCount   uint32
	mru        pair // the link traversed last
	top        pair // cached argmax over links by count
	more       map[pair]uint32
}

// ISPPM is the Interval-and-Size prediction-by-partial-match predictor
// of order j (§2.2): a graph whose nodes are the last j
// (offset-interval, size) pairs of a file's access stream and whose
// most-recently-used edges predict both the position and the size of
// the next request. Blocks never accessed before can be predicted,
// unlike block-granularity PPM. When the graph has no node for the
// current history (cold start, §2.2), it falls back to One-Block-Ahead
// and flags the prediction accordingly.
type ISPPM struct {
	order  int
	policy LinkPolicy
	// noFallback disables the cold-start OBA rule (ablation only);
	// Predict then reports no prediction when the graph cannot help.
	noFallback bool
	// nodes is the pattern graph. A displaced node leaves the links
	// into it in place: a prediction needs only the pair a link adds,
	// not the node it leads to.
	nodes table

	started bool
	lastReq Request
	hist    histKey
	// prevValid marks that hist identified an existing node at the
	// last Observe, so the next Observe can add the connecting link.
	// prevPos is the slab position that node had then: the next Observe
	// links through it while it still holds prevKey.
	prevValid bool
	prevKey   histKey
	prevPos   int32
}

// NewISPPM returns an order-j predictor with the default graph bound.
// It panics unless 1 <= order <= MaxOrder.
func NewISPPM(order int) *ISPPM {
	return newISPPMSized(order, DefaultMaxNodes)
}

// newISPPMSized returns an order-j predictor whose pattern graph holds
// at most maxNodes nodes.
func newISPPMSized(order, maxNodes int) *ISPPM {
	if order < 1 || order > MaxOrder {
		panic(fmt.Sprintf("core: IS_PPM order %d outside [1,%d]", order, MaxOrder))
	}
	if maxNodes < 1 {
		panic("core: IS_PPM needs at least one node")
	}
	return &ISPPM{order: order, nodes: newTable(maxNodes)}
}

// SetLinkPolicy switches between the paper's most-recent rule and the
// original PPM most-probable rule (for the ablation benches).
func (m *ISPPM) SetLinkPolicy(p LinkPolicy) { m.policy = p }

// SetFallback enables or disables the cold-start OBA fallback (§2.2).
func (m *ISPPM) SetFallback(enabled bool) { m.noFallback = !enabled }

// Name identifies the algorithm with its order, e.g. "IS_PPM:3".
func (m *ISPPM) Name() string { return fmt.Sprintf("IS_PPM:%d", m.order) }

// nodeCount returns the number of nodes currently in the graph.
func (m *ISPPM) nodeCount() int { return m.nodes.len() }

// Observe records a real user request, growing the pattern graph as in
// the paper's Figure 2, and returns the cursor positioned after it.
func (m *ISPPM) Observe(r Request, _ Tick) (c Cursor) {
	m.observeTo(r, &c)
	return c
}

func (m *ISPPM) observeTo(r Request, dst *Cursor) {
	if !m.started {
		// First request: no interval can be computed yet (§2.2, t1).
		m.started = true
		m.lastReq = r
		m.hist = histKey{}
		m.prevValid = false
		*dst = Cursor{Offset: r.Offset, Size: r.Size}
		return
	}
	pr := pair{interval: int32(r.Offset - m.lastReq.Offset), size: r.Size}
	m.hist.shiftFrom(&m.hist, pr, m.order)
	if m.hist.full(m.order) {
		pos := m.nodes.update(&m.hist)
		if m.prevValid {
			m.nodes.getOrCreateAt(m.prevPos, &m.prevKey).setLink(pr)
		}
		m.prevKey, m.prevPos = m.hist, pos
		m.prevValid = true
	}
	m.lastReq = r
	dst.Offset, dst.Size, dst.hist = r.Offset, r.Size, m.hist
}

// setLink counts one traversal of the link that adds pr.
func (nd *node) setLink(pr pair) {
	var c uint32
	if nd.firstCount == 0 || nd.first == pr {
		nd.first = pr
		nd.firstCount++
		c = nd.firstCount
	} else {
		if nd.more == nil {
			nd.more = make(map[pair]uint32)
		}
		c = nd.more[pr] + 1
		nd.more[pr] = c
	}
	// A refreshed or new link is by construction the most recent.
	nd.mru = pr
	if c > nd.topCount {
		nd.top = pr
		nd.topCount = c
	}
}

// successor returns the pair the link the given policy follows adds.
func (nd *node) successor(p LinkPolicy) (pair, bool) {
	if nd.firstCount == 0 {
		return pair{}, false
	}
	if p == MostProbableLinkPolicy {
		return nd.top, true
	}
	return nd.mru, true
}

// Predict follows the most recently used link out of the node matching
// the cursor's history (§2.2); when the graph cannot help, it falls
// back to the OBA rule, marking the prediction. The cursor's Offset and
// Size are the absolute position of the last request, which turns the
// graph's interval-relative links into block numbers.
func (m *ISPPM) Predict(cur Cursor) (Prediction, Cursor, bool) {
	p, ok := m.predictTo(&cur, &cur)
	return p, cur, ok
}

func (m *ISPPM) predictTo(src, dst *Cursor) (Prediction, bool) {
	if src.hist.full(m.order) {
		if nd := m.nodes.get(&src.hist); nd != nil {
			if next, ok := nd.successor(m.policy); ok {
				off := src.Offset + blockdev.BlockNo(next.interval)
				dst.Offset, dst.Size = off, next.size
				dst.hist.shiftFrom(&src.hist, next, m.order)
				return Prediction{Request: Request{Offset: off, Size: next.size}}, true
			}
		}
	}
	if m.noFallback {
		return Prediction{}, false
	}
	// OBA fallback: one block past the end of the last request. The
	// speculative history advances with the synthetic pair so that a
	// later window may re-match the graph.
	fbOffset := src.Offset + blockdev.BlockNo(src.Size)
	syn := pair{interval: int32(fbOffset - src.Offset), size: 1}
	dst.Offset, dst.Size = fbOffset, 1
	dst.hist.shiftFrom(&src.hist, syn, m.order)
	return Prediction{Request: Request{Offset: fbOffset, Size: 1}, Fallback: true}, true
}

// mostRecentLink returns, for tests, the MRU successor
// of the node keyed by the last j (interval,size) pairs given. ok is
// false when the node is absent or has no outgoing link.
func (m *ISPPM) mostRecentLink(pairs [][2]int32) (interval, size int32, ok bool) {
	if len(pairs) != m.order {
		return 0, 0, false
	}
	var k histKey
	for _, p := range pairs {
		k = k.shift(pair{interval: p[0], size: p[1]}, m.order)
	}
	nd := m.nodes.get(&k)
	if nd == nil || nd.firstCount == 0 {
		return 0, 0, false
	}
	return nd.mru.interval, nd.mru.size, true
}
