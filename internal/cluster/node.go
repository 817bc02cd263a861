package cluster

import (
	"errors"
	"fmt"
	"slices"
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
	// not a hung caller. A call unanswered after more than the timeout
	// (at most 1.5 times it: lapclient.Conn.SetCallTimeout) severs the
	// connection and fails like any transport error: the peer is
	// marked down and the health loop redials.
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

// DefaultPeerCallTimeout bounds peer RPCs when the caller passes 0 (a
// call fails after 5–7.5 s): two orders of magnitude above any healthy
// round trip, far below "operator notices the cluster is wedged".
const DefaultPeerCallTimeout = 5 * time.Second

// Clock is the slice of time the health loop consumes; tests inject a
// fake to step backoff schedules without sleeping.
type Clock interface {
	After(d time.Duration) <-chan time.Time
}

type realClock struct{}

func (realClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

// Node wires one lapcached process into the peer group. It implements
// lapcache.RemoteFetcher, the server's one view of the cluster: Owned
// picks the files it serves, Forward relays a client's request to the
// owner, and Members is the ring its ping reports.
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

	mu      sync.Mutex
	conn    *lapclient.Conn // nil while down, and until the first successful dial
	ringErr error           // the last handshake's ring mismatch; nil once one matches
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
// timeout passes (error names the stragglers), or fails at once when a
// peer's handshake reported another ring. Tests and the demo use it
// to sequence startup; production callers can skip it — a forward
// before readiness fails, and the client retries.
func (n *Node) WaitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		var waiting []string
		for addr, p := range n.peers {
			p.mu.Lock()
			up, ringErr := p.conn != nil, p.ringErr
			p.mu.Unlock()
			if ringErr != nil {
				return ringErr
			} else if !up {
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
// down, periodic liveness pings while up. One successful dial (its
// handshake on this node's ring) resets the backoff to PingInterval.
func (n *Node) healthLoop(p *peer) {
	defer n.wg.Done()
	attempt := 0
	for {
		if _, up := p.liveConn(); up {
			attempt = 0
		} else {
			conn, err := n.cfg.DialFunc(p.addr)
			if err == nil && n.checkRing(p, conn) == nil {
				if n.cfg.PeerCallTimeout > 0 {
					conn.SetCallTimeout(n.cfg.PeerCallTimeout)
				}
				p.mu.Lock()
				p.conn, p.ringErr = conn, nil
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

// checkRing fails a freshly dialed peer whose handshake reports a
// member list other than this node's: it closes the connection and
// keeps the reason on the peer for WaitReady, logged when it changes.
func (n *Node) checkRing(p *peer, conn *lapclient.Conn) error {
	theirs, ours := conn.Info().Members, n.ring.Members()
	if slices.Equal(theirs, ours) {
		return nil
	}
	conn.Close()
	err := fmt.Errorf("cluster: peer %s reports members %v, this node %v", p.addr, theirs, ours)
	p.mu.Lock()
	old := p.ringErr
	p.ringErr = err
	p.mu.Unlock()
	if old == nil || old.Error() != err.Error() {
		n.logf("%v", err)
	}
	return err
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

// --- lapcache.RemoteFetcher ---

// Owned implements lapcache.RemoteFetcher.
func (n *Node) Owned(f blockdev.FileID) bool { return n.ring.Owner(f) == n.self }

// Forward implements lapcache.RemoteFetcher, and is the one peer RPC:
// every request this node relays to a file's owner takes the owner's
// live connection, does one exchange and classifies the failure. An
// owner that is down, was just faulted by a transport error, or is not
// a peer fails the request with lapcache.ErrOwnerUnreachable,
// unwrapped; an owner that was reached and refused fails it with its
// own message, unwrapped, so the relay hands the client the owner's
// words once.
func (n *Node) Forward(h wire.Header, payload []byte, dsts [][]byte) (wire.Header, error) {
	p, ok := n.peers[n.ring.Owner(blockdev.FileID(h.File))]
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
		return rh, errors.New(se.Msg)
	}
	n.fault(p, err)
	return rh, lapcache.ErrOwnerUnreachable
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

// Members returns every ring member's advertise address, sorted.
func (n *Node) Members() []string { return n.ring.Members() }

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
