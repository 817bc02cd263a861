package cluster

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/lapclient"
	"repro/internal/wire"
)

// handoff is the bounded-rate rebalancer: after every ring move it
// scans the local engine's cached blocks and pushes the ones whose
// file this node no longer owns (and does not hold as the R=2
// successor) to the new owner, as replica installs — store + cache on
// the receiver, no driver feed, so re-homing data never perturbs the
// owner's prefetch chain. A token bucket meters the pushes to the
// configured bytes/second so rebalancing after a join or a death
// never starves the foreground traffic sharing the same links.
type handoff struct {
	n   *Node
	bps int64 // <0 = unlimited

	wakeCh   chan struct{}
	quit     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	// Token bucket: tokens is the spendable byte allowance, refilled
	// against real time up to burst. All under mu.
	mu       sync.Mutex
	tokens   float64
	lastFill time.Time

	blocksMoved atomic.Uint64
	bytesMoved  atomic.Uint64
	passes      atomic.Uint64
}

// HandoffStats is a frozen view of the rebalancer's counters.
type HandoffStats struct {
	// BlocksMoved and BytesMoved count blocks pushed to their new
	// owner across all passes; Passes counts scan sweeps.
	BlocksMoved uint64 `json:"blocks_moved"`
	BytesMoved  uint64 `json:"bytes_moved"`
	Passes      uint64 `json:"passes"`
}

func newHandoff(n *Node, bps int64) *handoff {
	h := &handoff{
		n:      n,
		bps:    bps,
		wakeCh: make(chan struct{}, 1),
		quit:   make(chan struct{}),
	}
	if bps > 0 {
		// Start with one burst's worth so the first block after a quiet
		// period never waits; burst is capped at 1/8s of budget.
		h.tokens = float64(bps) / 8
	}
	return h
}

func (h *handoff) start() {
	h.wg.Add(1)
	go h.loop()
}

func (h *handoff) stop() {
	h.stopOnce.Do(func() { close(h.quit) })
	h.wg.Wait()
}

// wake nudges the loop after a ring move; a pending nudge coalesces.
func (h *handoff) wake() {
	select {
	case h.wakeCh <- struct{}{}:
	default:
	}
}

func (h *handoff) loop() {
	defer h.wg.Done()
	for {
		select {
		case <-h.quit:
			return
		case <-h.wakeCh:
			h.runOnce()
		}
	}
}

func (h *handoff) stats() HandoffStats {
	return HandoffStats{
		BlocksMoved: h.blocksMoved.Load(),
		BytesMoved:  h.bytesMoved.Load(),
		Passes:      h.passes.Load(),
	}
}

// spend blocks until the bucket can cover nbytes, metering the pass
// to the configured rate. It returns false if the node is shutting
// down. Unlimited budgets spend nothing.
func (h *handoff) spend(nbytes int) bool {
	if h.bps <= 0 {
		return true
	}
	burst := float64(h.bps) / 8
	if need := float64(nbytes); need > burst {
		burst = need
	}
	for {
		h.mu.Lock()
		now := time.Now()
		if h.lastFill.IsZero() {
			h.lastFill = now
		}
		h.tokens += now.Sub(h.lastFill).Seconds() * float64(h.bps)
		if h.tokens > burst {
			h.tokens = burst
		}
		h.lastFill = now
		if h.tokens >= float64(nbytes) {
			h.tokens -= float64(nbytes)
			h.mu.Unlock()
			return true
		}
		shortfall := float64(nbytes) - h.tokens
		h.mu.Unlock()
		wait := time.Duration(shortfall / float64(h.bps) * float64(time.Second))
		if wait < time.Millisecond {
			wait = time.Millisecond
		}
		select {
		case <-h.quit:
			return false
		case <-time.After(wait):
		}
	}
}

// runOnce sweeps the local cache once and pushes every block this
// node should no longer hold to its current owner. Blocks whose push
// fails (owner down, mid-move) stay local — the next ring move or
// pass retries; data is never dropped on a failed transfer.
func (h *handoff) runOnce() int {
	n := h.n
	l := n.localEngine()
	if l == nil {
		return 0
	}
	h.passes.Add(1)
	bs := l.BlockSize()
	buf := make([]byte, bs)
	moved := 0
	for _, id := range l.CachedBlockIDs() {
		select {
		case <-h.quit:
			return moved
		default:
		}
		owners := n.ring().Owners(id.File, n.replicas)
		keep := false
		for _, o := range owners {
			if o == n.self {
				keep = true
				break
			}
		}
		if keep {
			continue
		}
		p, ok := n.peerFor(owners[0])
		if !ok {
			continue
		}
		if _, up := p.liveConn(); !up {
			continue
		}
		if !h.spend(bs) {
			return moved
		}
		if err := l.ReadBlockLocal(id, buf); err != nil {
			continue
		}
		if _, ok, err := n.forward(p, lapclient.Req(wire.OpWrite, wire.FlagPeer|wire.FlagReplica, id.File, id.Block, 1), buf, nil); !ok || err != nil {
			continue // retried next pass
		}
		moved++
		h.blocksMoved.Add(1)
		h.bytesMoved.Add(uint64(bs))
	}
	if moved > 0 {
		n.logf("cluster: handoff moved %d blocks (%d bytes)", moved, moved*bs)
	}
	return moved
}

// HandoffBudget exposes the node's handoff byte/s budget (<= 0 =
// unlimited); the chaos invariant compares measured traffic against
// it.
func (n *Node) HandoffBudget() int64 { return n.handoff.bps }
