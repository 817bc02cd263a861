package cluster

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/blockdev"
	"repro/internal/lapclient"
	"repro/internal/membership"
	"repro/internal/wire"
)

// Config assembles a cluster node.
type Config struct {
	// Self is this node's advertise address — the address peers dial
	// and the identity the ring hashes. It must appear in Peers (it is
	// added if missing).
	Self string
	// Peers is the initial ring, self included or not. Without Join it
	// is the ring for the whole run.
	Peers []string
	// Join lists gossip seed addresses. A non-empty Join starts the
	// failure detector (internal/membership), whose views drive the
	// ring, so joins and deaths move ownership instead of degrading it.
	// The first node of a fleet joins itself.
	Join []string
	// Replicas is how many ring members hold each block: 1 = owner
	// only, 2 = owner plus its ring successor (writes are pushed to
	// the successor before the ack, and the successor's memory serves
	// reads while the owner is dead). 0 defaults to 2 with Join and 1
	// without.
	Replicas int
	// HandoffBps budgets the background rebalancing pushes after a
	// ring move, in bytes per second (0 = DefaultHandoffBps, < 0 =
	// unlimited). The budget is what keeps a join or a death from
	// starving foreground traffic on the same links.
	HandoffBps int64
	// PingInterval paces the per-peer health loop: how often a live
	// peer is pinged and how soon a dead one is first re-dialed
	// (0 = 250ms). Consecutive dial failures back off exponentially
	// from this interval up to BackoffMax (0 = 4s), with ±25% jitter so
	// peers that died together do not redial in lockstep; one success
	// resets the backoff to PingInterval.
	PingInterval time.Duration
	BackoffMax   time.Duration
	// GossipInterval is the failure detector's gossip period (0 = the
	// membership default); SuspicionTimeout how long a member's
	// heartbeat may stand still — the member still owning its arcs —
	// before it is declared Dead and the ring moves (0 = 8 gossip
	// periods).
	GossipInterval   time.Duration
	SuspicionTimeout time.Duration
	// GossipIntercept, when set, is consulted before every gossip send
	// with the destination address; a non-nil return drops the
	// datagram. The fault harness scripts partitions through it.
	GossipIntercept func(to string) error
	// PeerCallTimeout bounds every synchronous RPC to a peer
	// (0 = DefaultPeerCallTimeout, < 0 = unbounded): a peer that has
	// stopped answering, or a cycle within one file's requests while
	// rings transiently disagree, costs a bounded wait. On expiry the
	// connection is severed and the call fails like any transport
	// error: the peer degrades to local service and the health loop
	// redials.
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

// DefaultHandoffBps is the rebalancing budget when the caller passes
// 0: fast enough to drain a test-sized cache in well under a second,
// slow enough that rebalancing is visibly not a firehose.
const DefaultHandoffBps = 4 << 20

// DefaultPeerCallTimeout bounds peer RPCs when the caller passes 0:
// two orders of magnitude above any healthy round trip, far below
// "operator notices the cluster is wedged".
const DefaultPeerCallTimeout = 5 * time.Second

// ringHistory bounds how many past rings a node remembers for
// OwnedEver — enough to cover every move in a chaos run, small enough
// that a long-lived node does not grow without bound.
const ringHistory = 64

// Clock is the slice of time the health loop consumes; tests inject a
// fake to step backoff schedules without sleeping.
type Clock interface {
	After(d time.Duration) <-chan time.Time
}

type realClock struct{}

func (realClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

// LocalEngine is the slice of the local cache engine the node calls
// back into: ownership re-probes when the ring changes, read-repair
// installs after a replica serves a read, and the block iterator the
// handoff loop drains. It is implemented by *lapcache.Engine; the
// interface keeps the import arrow pointing from cluster to lapcache
// only through lapclient.
type LocalEngine interface {
	// OwnershipChanged re-probes every cached ownership decision —
	// prefetch chains move to the new owner, suspended chains resume.
	OwnershipChanged()
	// RepairInstall writes blocks fetched from a replica through to
	// the local store, restoring two reachable copies.
	RepairInstall(f blockdev.FileID, off blockdev.BlockNo, srcs [][]byte)
	// CachedBlockIDs snapshots the identities of every locally cached
	// block; ReadBlockLocal reads one of them (cache first, then
	// store) into dst. The handoff loop pairs them to re-home blocks.
	CachedBlockIDs() []blockdev.BlockID
	ReadBlockLocal(b blockdev.BlockID, dst []byte) error
	// BlockSize sizes handoff buffers.
	BlockSize() int
}

// Node wires one lapcached process into the peer group. It implements
// lapcache.RemoteFetcher (the engine's forward path), the one interface
// through which the engine stays free of any cluster import.
//
// Each peer gets one pipelined binary connection and a health
// goroutine: dial with exponential backoff while down, periodic pings
// while up, and any transport error — from the health loop or from a
// forward in flight — marks the peer down on the spot so subsequent
// forwards degrade to the local store immediately instead of each
// paying a TCP timeout.
//
// The ring is versioned: ringPtr holds the current assignment and
// epoch counts every change. The epoch moves on a membership-driven
// ring swap only: Owned reads the ring alone, so a peer going down or
// coming back changes no ownership decision (a forward to a down
// peer degrades to local service at the call, and nothing caches
// that outcome).
type Node struct {
	cfg      Config
	self     string
	replicas int

	ringPtr atomic.Pointer[Ring]
	epoch   atomic.Uint64

	histMu  sync.Mutex
	history []*Ring

	peersMu sync.RWMutex
	peers   map[string]*peer // keyed by advertise address, self excluded

	localMu sync.RWMutex
	local   LocalEngine

	mship   *membership.Membership // nil without Join
	handoff *handoff

	quit    chan struct{}
	wg      sync.WaitGroup
	stop    sync.Once
	started bool
}

// peer is one remote member and its connection state.
type peer struct {
	addr string
	quit chan struct{} // closed when the member leaves the ring

	mu   sync.Mutex
	conn *lapclient.Conn // nil while down, and until the first successful dial
}

// NewNode validates the membership and builds the node. Call Start to
// begin dialing peers; a node that is never started degrades every
// remote file to the local store (all peers read as down).
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
	replicas := cfg.Replicas
	if replicas <= 0 {
		replicas = 1
		if len(cfg.Join) > 0 {
			replicas = 2
		}
	}
	bps := cfg.HandoffBps
	if bps == 0 {
		bps = DefaultHandoffBps
	}
	n := &Node{
		cfg:      cfg,
		self:     cfg.Self,
		replicas: replicas,
		peers:    make(map[string]*peer),
		quit:     make(chan struct{}),
	}
	n.handoff = newHandoff(n, bps)
	n.ringPtr.Store(ring)
	n.epoch.Store(1)
	n.history = []*Ring{ring}
	for _, m := range ring.Members() {
		if m != n.self {
			n.peers[m] = &peer{addr: m, quit: make(chan struct{})}
		}
	}
	if len(cfg.Join) > 0 {
		n.mship, err = membership.New(membership.Config{
			Self:             cfg.Self,
			Seeds:            cfg.Join,
			ProbeInterval:    cfg.GossipInterval,
			SuspicionTimeout: cfg.SuspicionTimeout,
			Intercept:        cfg.GossipIntercept,
			OnUpdate:         n.onMembership,
			Logf:             cfg.Logf,
		})
		if err != nil {
			return nil, err
		}
	}
	return n, nil
}

// SetLocal hands the node its engine callbacks. Wire it before Start
// so the first ring move already re-probes drivers; a node without an
// engine (tests exercising only routing) skips the callbacks.
func (n *Node) SetLocal(l LocalEngine) {
	n.localMu.Lock()
	n.local = l
	n.localMu.Unlock()
}

func (n *Node) localEngine() LocalEngine {
	n.localMu.RLock()
	defer n.localMu.RUnlock()
	return n.local
}

// Start launches the per-peer health loops, the handoff loop (idle
// until the ring moves) and, with Join, the gossip detector.
// Idempotent-hostile on purpose: call it exactly once, after the local
// server is listening.
func (n *Node) Start() error {
	if n.started {
		panic("cluster: Node.Start called twice")
	}
	n.started = true
	n.peersMu.RLock()
	for _, p := range n.peers {
		n.wg.Add(1)
		go n.healthLoop(p)
	}
	n.peersMu.RUnlock()
	n.handoff.start()
	if n.mship != nil {
		return n.mship.Start()
	}
	return nil
}

// Close stops the gossip layer, the health loops, and every peer
// connection. No departure is announced: peers notice the silence,
// exactly as they would a crash.
func (n *Node) Close() {
	n.stop.Do(func() { close(n.quit) })
	if n.mship != nil {
		n.mship.Close() //nolint:errcheck // close errors carry nothing actionable
	}
	n.handoff.stop()
	n.wg.Wait()
	n.peersMu.Lock()
	defer n.peersMu.Unlock()
	for _, p := range n.peers {
		p.mu.Lock()
		if p.conn != nil {
			p.conn.Close()
			p.conn = nil
		}
		p.mu.Unlock()
	}
}

// ring returns the current assignment.
func (n *Node) ring() *Ring { return n.ringPtr.Load() }

// Epoch implements lapcache.RemoteFetcher: the version of the current
// ownership assignment, bumped by ring moves.
func (n *Node) Epoch() uint64 { return n.epoch.Load() }

// onMembership is the gossip layer's view callback: rebuild the ring
// from every non-dead member (self always included — a node that
// hears a stale rumor of its own death keeps serving while the
// refutation propagates) and swap it in if the set changed. A member
// keeps its arcs until it is convicted: ownership moves on a whole
// suspicion timeout of silence, not on one lost datagram.
func (n *Node) onMembership(v membership.View) {
	addrs := []string{n.self}
	for _, m := range v.Members {
		if m.Addr != n.self {
			addrs = append(addrs, m.Addr)
		}
	}
	sort.Strings(addrs)
	cur := n.ring().Members()
	if equalStrings(addrs, cur) {
		return
	}
	ring, err := NewRing(addrs, 0)
	if err != nil {
		n.logf("cluster: rejecting membership view: %v", err)
		return
	}
	n.swapRing(ring)
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// swapRing installs a new assignment: publish the ring, remember it
// for OwnedEver, bump the epoch, reconcile the peer set, tell the
// engine to re-probe, and wake the handoff loop to re-home blocks.
func (n *Node) swapRing(r *Ring) {
	n.ringPtr.Store(r)
	n.histMu.Lock()
	n.history = append(n.history, r)
	if len(n.history) > ringHistory {
		n.history = n.history[len(n.history)-ringHistory:]
	}
	n.histMu.Unlock()
	n.epoch.Add(1)
	n.syncPeers(r.Members())
	if l := n.localEngine(); l != nil {
		l.OwnershipChanged()
	}
	n.handoff.wake()
	n.logf("cluster: ring moved to %v (epoch %d)", r.Members(), n.Epoch())
}

// syncPeers reconciles the peer map with the new member list: new
// members get a health loop, departed members get their loop stopped
// and connection closed.
func (n *Node) syncPeers(members []string) {
	want := make(map[string]bool, len(members))
	for _, m := range members {
		if m != n.self {
			want[m] = true
		}
	}
	n.peersMu.Lock()
	var added []*peer
	for addr := range want {
		if _, ok := n.peers[addr]; !ok {
			p := &peer{addr: addr, quit: make(chan struct{})}
			n.peers[addr] = p
			added = append(added, p)
		}
	}
	var removed []*peer
	for addr, p := range n.peers {
		if !want[addr] {
			removed = append(removed, p)
			delete(n.peers, addr)
		}
	}
	n.peersMu.Unlock()
	for _, p := range added {
		if n.started {
			n.wg.Add(1)
			go n.healthLoop(p)
		}
	}
	for _, p := range removed {
		close(p.quit)
		p.mu.Lock()
		if p.conn != nil {
			p.conn.Close()
			p.conn = nil
		}
		p.mu.Unlock()
	}
}

// peerFor returns the peer entry for addr, if it is a current member.
func (n *Node) peerFor(addr string) (*peer, bool) {
	n.peersMu.RLock()
	p, ok := n.peers[addr]
	n.peersMu.RUnlock()
	return p, ok
}

// WaitReady blocks until every peer is dialed and live, or the
// timeout passes (error names the stragglers). Tests and the demo use
// it to sequence startup; production callers can skip it — forwards
// before readiness just degrade locally.
func (n *Node) WaitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		var waiting []string
		n.peersMu.RLock()
		for addr, p := range n.peers {
			if _, up := p.liveConn(); !up {
				waiting = append(waiting, addr)
			}
		}
		n.peersMu.RUnlock()
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
		case <-p.quit:
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
// another member — span reads, owner-bound writes and closes, replica
// pushes, handoff transfers — takes the peer's live connection, does
// one exchange and classifies the failure. ok=false means the peer could
// not be reached (it was down, or a transport error just faulted it):
// the caller degrades to local service. A ServerError means the peer
// was reached and refused — ok stays true and the error propagates,
// because the request itself is bad.
func (n *Node) forward(p *peer, h wire.Header, payload []byte, dsts [][]byte) (rh wire.Header, ok bool, err error) {
	conn, up := p.liveConn()
	if !up {
		return rh, false, nil
	}
	rh, _, err = conn.Do(h, payload, dsts)
	if err == nil {
		return rh, true, nil
	}
	// Declared past the success return: &se escapes, and the remote-hit
	// path is gated at 0 allocs/op.
	var se *lapclient.ServerError
	if errors.As(err, &se) {
		return rh, true, err
	}
	n.fault(p, err)
	return rh, false, nil
}

// ownerPeer resolves f's owner to its peer entry; ok=false means the
// owner is this node (callers should not have forwarded) or unknown.
func (n *Node) ownerPeer(f blockdev.FileID) (*peer, bool) {
	return n.peerFor(n.ring().Owner(f))
}

// replicaPeer resolves f's R=2 successor to its peer entry; ok=false
// when replication is off, the ring is too small, or the successor is
// this node.
func (n *Node) replicaPeer(f blockdev.FileID) (*peer, bool) {
	if n.replicas < 2 {
		return nil, false
	}
	owners := n.ring().Owners(f, n.replicas)
	if len(owners) < 2 {
		return nil, false
	}
	return n.peerFor(owners[1])
}

// --- lapcache.RemoteFetcher ---

// Owned implements lapcache.RemoteFetcher.
func (n *Node) Owned(f blockdev.FileID) bool { return n.ring().Owner(f) == n.self }

// OwnedEver reports whether any ring this node has ever installed
// assigned f to it. The chaos harness's owner-only audit uses it: a
// node legitimately accumulates prefetch history for a file it owned
// under an earlier epoch.
func (n *Node) OwnedEver(f blockdev.FileID) bool {
	n.histMu.Lock()
	defer n.histMu.Unlock()
	for _, r := range n.history {
		if r.Owner(f) == n.self {
			return true
		}
	}
	return false
}

// FetchSpan implements lapcache.RemoteFetcher: one pipelined
// peer-flagged read RPC whose payload lands directly in dsts, served
// strictly locally by the receiver. When the owner is unreachable and
// the tier replicates, the file's ring successor — holding every acked
// write of f in its memory — serves instead, and the fetched blocks
// are written through to the local store (read-repair) so the data is
// two-copy again even with the owner gone.
func (n *Node) FetchSpan(f blockdev.FileID, off blockdev.BlockNo, nblocks int32, dsts [][]byte) (hit, ok bool, err error) {
	h := lapclient.Req(wire.OpRead, wire.FlagWantData|wire.FlagPeer, f, off, nblocks)
	if p, found := n.ownerPeer(f); found {
		if rh, ok, err := n.forward(p, h, nil, dsts); ok {
			return rh.Flags&wire.FlagHit != 0, true, err
		}
	}
	// Owner gone (or was never a peer): try the replica.
	p, found := n.replicaPeer(f)
	if !found {
		return false, false, nil
	}
	rh, ok, err := n.forward(p, h, nil, dsts)
	if ok && err == nil {
		if l := n.localEngine(); l != nil {
			l.RepairInstall(f, off, dsts)
		}
	}
	return rh.Flags&wire.FlagHit != 0, ok, err
}

// ForwardWrite implements lapcache.RemoteFetcher.
func (n *Node) ForwardWrite(f blockdev.FileID, off blockdev.BlockNo, nblocks int32, data []byte) (ok, replicated bool, err error) {
	p, found := n.ownerPeer(f)
	if !found {
		return false, false, nil
	}
	rh, ok, err := n.forward(p, lapclient.Req(wire.OpWrite, wire.FlagPeer, f, off, nblocks), data, nil)
	return ok, rh.Flags&wire.FlagReplicated != 0, err
}

// ReplicateWrite implements lapcache.RemoteFetcher: push the span to
// f's ring successor as a replica install. Best-effort — a down
// successor just means the ack goes out without FlagReplicated.
func (n *Node) ReplicateWrite(f blockdev.FileID, off blockdev.BlockNo, nblocks int32, data []byte) bool {
	p, found := n.replicaPeer(f)
	if !found {
		return false
	}
	_, ok, err := n.forward(p, lapclient.Req(wire.OpWrite, wire.FlagPeer|wire.FlagReplica, f, off, nblocks), data, nil)
	return ok && err == nil
}

// Replicates implements lapcache.RemoteFetcher.
func (n *Node) Replicates() bool { return n.replicas >= 2 }

// ForwardClose implements lapcache.RemoteFetcher.
func (n *Node) ForwardClose(f blockdev.FileID) (bool, error) {
	p, found := n.ownerPeer(f)
	if !found {
		return false, nil
	}
	_, ok, err := n.forward(p, lapclient.Req(wire.OpClose, wire.FlagPeer, f, 0, 0), nil, nil)
	return ok, err
}

// --- membership view ---

// Self returns this node's advertise address.
func (n *Node) Self() string { return n.self }

// OwnerOf returns the advertise address of f's ring owner and whether
// that owner is this node.
func (n *Node) OwnerOf(f blockdev.FileID) (string, bool) {
	owner := n.ring().Owner(f)
	return owner, owner == n.self
}

// MemberAddrs returns every ring member's advertise address, sorted.
func (n *Node) MemberAddrs() []string { return n.ring().Members() }

// PeerDown reports whether addr is currently marked down (false for
// self and unknown addresses); tests read it.
func (n *Node) PeerDown(addr string) bool {
	p, ok := n.peerFor(addr)
	if !ok {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.conn == nil
}

// HandoffStats reports the rebalancing loop's lifetime counters.
func (n *Node) HandoffStats() HandoffStats { return n.handoff.stats() }

// RunHandoff drains one full rebalancing pass synchronously,
// respecting the byte/s budget, and reports how many blocks moved.
// The background loop runs the same pass after every ring move;
// tests call it directly.
func (n *Node) RunHandoff() int { return n.handoff.runOnce() }
