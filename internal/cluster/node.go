package cluster

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/blockdev"
	"repro/internal/lapcache"
	"repro/internal/lapclient"
	"repro/internal/wire"
)

// Config assembles a cluster node.
type Config struct {
	// Self is this node's advertise address — the address peers dial
	// and the identity the ring hashes. It must appear in Peers (it is
	// added if missing).
	Self string
	// Peers is the ring, self included or not: the member list is
	// fixed for the node's whole life.
	Peers []string
	// PingInterval paces the per-peer health loop: how often a live
	// peer is pinged and how soon a dead one is first re-dialed
	// (0 = 250ms). Consecutive dial failures back off exponentially
	// from this interval up to BackoffMax (0 = 4s), with ±25% jitter so
	// peers that died together do not redial in lockstep; one success
	// resets the backoff to PingInterval.
	PingInterval time.Duration
	BackoffMax   time.Duration
	// PeerCallTimeout bounds every synchronous RPC to a peer
	// (0 = DefaultPeerCallTimeout, < 0 = unbounded): a peer whose
	// process is alive but has stopped answering costs a bounded wait,
	// not a hung caller. On expiry the connection is severed and the
	// call fails like any transport error: the peer is marked down
	// and the health loop redials.
	PeerCallTimeout time.Duration
	// DialFunc overrides how the one connection to a peer is dialed
	// (nil = lapclient.DialConn with window PeerWindow). The
	// fault-injection harness uses it to interpose transport faults and
	// injected dial failures on peer links.
	DialFunc func(addr string) (*lapclient.Conn, error)
	// Clock overrides the health loop's timers (nil = real time);
	// backoff tests drive the loop with a fake clock.
	Clock Clock
	// Logf, when non-nil, receives peer up/down transitions.
	Logf func(format string, args ...any)
}

// PeerWindow is the in-flight window of the one connection a node
// keeps to each peer. Every forward to that peer shares it, so a burst
// of forwards leaves in one group commit (lapclient.Conn's writev)
// rather than split across connections.
const PeerWindow = 2 * lapclient.DefaultWindow

// DefaultPeerCallTimeout bounds peer RPCs when the caller passes 0:
// two orders of magnitude above any healthy round trip, far below
// "operator notices the cluster is wedged".
const DefaultPeerCallTimeout = 5 * time.Second

// Clock is the slice of time the health loop consumes; tests inject a
// fake to step backoff schedules without sleeping.
type Clock interface {
	After(d time.Duration) <-chan time.Time
}

type realClock struct{}

func (realClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

// Node wires one lapcached process into the peer group. It implements
// lapcache.RemoteFetcher (the engine's forward path), the one interface
// through which the engine stays free of any cluster import.
//
// Each peer gets one pipelined binary connection and a health
// goroutine: dial with exponential backoff while down, periodic pings
// while up, and any transport error — from the health loop or from a
// forward in flight — marks the peer down on the spot so subsequent
// forwards fail at once instead of each paying a TCP timeout.
//
// The ring and the peer map are fixed at NewNode: Owned reads the ring
// alone, so a peer going down or coming back changes no ownership
// decision (a forward to a down peer fails at the call, and nothing
// caches that outcome).
type Node struct {
	cfg   Config
	self  string
	ring  *Ring
	peers map[string]*peer // keyed by advertise address, self excluded

	quit    chan struct{}
	wg      sync.WaitGroup
	stop    sync.Once
	started bool
}

// peer is one remote member and its connection state.
type peer struct {
	addr string

	mu   sync.Mutex
	conn *lapclient.Conn // nil while down, and until the first successful dial
}

// NewNode validates the member list and builds the node. Call Start to
// begin dialing peers; a node that is never started fails every
// forward with lapcache.ErrOwnerUnreachable (all peers read as down).
func NewNode(cfg Config) (*Node, error) {
	if cfg.Self == "" {
		return nil, fmt.Errorf("cluster: config needs a self address")
	}
	members := append([]string{cfg.Self}, cfg.Peers...)
	ring, err := NewRing(members, 0)
	if err != nil {
		return nil, err
	}
	if cfg.PingInterval <= 0 {
		cfg.PingInterval = 250 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = 4 * time.Second
	}
	if cfg.DialFunc == nil {
		cfg.DialFunc = func(addr string) (*lapclient.Conn, error) { return lapclient.DialConn(addr, PeerWindow) }
	}
	if cfg.PeerCallTimeout == 0 {
		cfg.PeerCallTimeout = DefaultPeerCallTimeout
	}
	if cfg.Clock == nil {
		cfg.Clock = realClock{}
	}
	n := &Node{
		cfg:   cfg,
		self:  cfg.Self,
		ring:  ring,
		peers: make(map[string]*peer),
		quit:  make(chan struct{}),
	}
	for _, m := range ring.Members() {
		if m != n.self {
			n.peers[m] = &peer{addr: m}
		}
	}
	return n, nil
}

// Start launches the per-peer health loops. Idempotent-hostile on
// purpose: call it exactly once, after the local server is listening.
func (n *Node) Start() {
	if n.started {
		panic("cluster: Node.Start called twice")
	}
	n.started = true
	for _, p := range n.peers {
		n.wg.Add(1)
		go n.healthLoop(p)
	}
}

// Close stops the health loops and every peer connection. No
// departure is announced: peers notice the silence, exactly as they
// would a crash.
func (n *Node) Close() {
	n.stop.Do(func() { close(n.quit) })
	n.wg.Wait()
	for _, p := range n.peers {
		p.mu.Lock()
		if p.conn != nil {
			p.conn.Close()
			p.conn = nil
		}
		p.mu.Unlock()
	}
}

// WaitReady blocks until every peer is dialed and live, or the
// timeout passes (error names the stragglers). Tests and the demo use
// it to sequence startup; production callers can skip it — a forward
// before readiness fails, and the client retries.
func (n *Node) WaitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		var waiting []string
		for addr, p := range n.peers {
			if _, up := p.liveConn(); !up {
				waiting = append(waiting, addr)
			}
		}
		if len(waiting) == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster: peers not ready after %v: %v", timeout, waiting)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// logf reports a peer transition when logging is configured.
func (n *Node) logf(format string, args ...any) {
	if n.cfg.Logf != nil {
		n.cfg.Logf(format, args...)
	}
}

// NextBackoff returns the redial delay after `attempt` consecutive
// dial failures to addr: PingInterval doubled per attempt, capped at
// BackoffMax, then jittered ±25% by a hash of (addr, attempt). The
// jitter is deterministic — the same peer retries on the same
// schedule every run — but decorrelated across peers and attempts, so
// a cluster-wide outage does not turn recovery into a redial storm.
// attempt 0 (no failures yet) is PingInterval unjittered: the reset
// value after a success.
func (n *Node) NextBackoff(addr string, attempt int) time.Duration {
	if attempt <= 0 {
		return n.cfg.PingInterval
	}
	b := n.cfg.PingInterval
	for i := 0; i < attempt && b < n.cfg.BackoffMax; i++ {
		b *= 2
	}
	if b > n.cfg.BackoffMax {
		b = n.cfg.BackoffMax
	}
	h := uint64(1469598103934665603)
	for i := 0; i < len(addr); i++ {
		h ^= uint64(addr[i])
		h *= 1099511628211
	}
	h = mix64(h ^ uint64(attempt))
	// 53 uniform bits → factor in [0.75, 1.25).
	f := 0.75 + 0.5*float64(h>>11)/float64(1<<53)
	return time.Duration(float64(b) * f)
}

// healthLoop keeps one peer dialed: jittered exponential backoff while
// down, periodic liveness pings while up. One successful dial resets
// the backoff schedule to PingInterval.
func (n *Node) healthLoop(p *peer) {
	defer n.wg.Done()
	attempt := 0
	for {
		if _, up := p.liveConn(); up {
			attempt = 0
		} else {
			conn, err := n.cfg.DialFunc(p.addr)
			if err == nil {
				if n.cfg.PeerCallTimeout > 0 {
					conn.SetCallTimeout(n.cfg.PeerCallTimeout)
				}
				p.mu.Lock()
				if p.conn != nil {
					p.conn.Close()
				}
				p.conn = conn
				p.mu.Unlock()
				n.logf("cluster: peer %s up", p.addr)
				attempt = 0
			} else {
				attempt++
			}
		}

		select {
		case <-n.quit:
			return
		case <-n.cfg.Clock.After(n.NextBackoff(p.addr, attempt)):
		}

		if conn, up := p.liveConn(); up {
			if _, err := lapclient.Ping(conn); err != nil {
				n.fault(p, err)
			}
		}
	}
}

// liveConn returns the peer's connection if it is up.
func (p *peer) liveConn() (*lapclient.Conn, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.conn, p.conn != nil
}

// fault marks a peer down after a transport error; the health loop
// owns the redial. The connection is closed so every caller blocked
// inside it fails fast instead of waiting out the kernel.
func (n *Node) fault(p *peer, err error) {
	p.mu.Lock()
	wasUp := p.conn != nil
	if wasUp {
		p.conn.Close()
		p.conn = nil
	}
	p.mu.Unlock()
	if wasUp {
		n.logf("cluster: peer %s down: %v", p.addr, err)
	}
}

// forward is the one peer RPC: every request this node sends on to
// f's owner — span reads, owner-bound writes and closes — takes the
// owner's live connection, does one exchange and classifies the
// failure. An owner that is down, was just faulted by a transport
// error, or is not a peer fails the request with
// lapcache.ErrOwnerUnreachable, unwrapped; a ServerError means the
// owner was reached and refused, and propagates as it is.
func (n *Node) forward(f blockdev.FileID, h wire.Header, payload []byte, dsts [][]byte) (wire.Header, error) {
	p, ok := n.peers[n.ring.Owner(f)]
	if !ok {
		return wire.Header{}, lapcache.ErrOwnerUnreachable
	}
	conn, up := p.liveConn()
	if !up {
		return wire.Header{}, lapcache.ErrOwnerUnreachable
	}
	rh, _, err := conn.Do(h, payload, dsts)
	if err == nil {
		return rh, nil
	}
	// Declared past the success return: &se escapes, and the remote-hit
	// path is gated at 0 allocs/op.
	var se *lapclient.ServerError
	if errors.As(err, &se) {
		return rh, err
	}
	n.fault(p, err)
	return rh, lapcache.ErrOwnerUnreachable
}

// --- lapcache.RemoteFetcher ---

// Owned implements lapcache.RemoteFetcher.
func (n *Node) Owned(f blockdev.FileID) bool { return n.ring.Owner(f) == n.self }

// FetchSpan implements lapcache.RemoteFetcher: one pipelined
// peer-flagged read RPC whose payload lands directly in dsts, served
// strictly locally by the receiver.
func (n *Node) FetchSpan(f blockdev.FileID, off blockdev.BlockNo, nblocks int32, dsts [][]byte) (bool, error) {
	rh, err := n.forward(f, lapclient.Req(wire.OpRead, wire.FlagWantData|wire.FlagPeer, f, off, nblocks), nil, dsts)
	return rh.Flags&wire.FlagHit != 0, err
}

// ForwardWrite implements lapcache.RemoteFetcher.
func (n *Node) ForwardWrite(f blockdev.FileID, off blockdev.BlockNo, nblocks int32, data []byte) error {
	_, err := n.forward(f, lapclient.Req(wire.OpWrite, wire.FlagPeer, f, off, nblocks), data, nil)
	return err
}

// ForwardClose implements lapcache.RemoteFetcher.
func (n *Node) ForwardClose(f blockdev.FileID) error {
	_, err := n.forward(f, lapclient.Req(wire.OpClose, wire.FlagPeer, f, 0, 0), nil, nil)
	return err
}

// --- the member list ---

// Self returns this node's advertise address.
func (n *Node) Self() string { return n.self }

// OwnerOf returns the advertise address of f's ring owner and whether
// that owner is this node.
func (n *Node) OwnerOf(f blockdev.FileID) (string, bool) {
	owner := n.ring.Owner(f)
	return owner, owner == n.self
}

// MemberAddrs returns every ring member's advertise address, sorted.
func (n *Node) MemberAddrs() []string { return n.ring.Members() }

// PeerDown reports whether addr is currently marked down (false for
// self and unknown addresses); tests read it.
func (n *Node) PeerDown(addr string) bool {
	p, ok := n.peers[addr]
	if !ok {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.conn == nil
}
