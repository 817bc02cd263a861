// Package membership is a SWIM-style gossip failure detector: direct
// UDP pings with indirect ping-req relays, suspicion grace periods,
// incarnation-numbered refutation, and full-state piggyback
// anti-entropy. It answers exactly one question for the cooperative
// cache tier — "who is in the fleet right now?" — and feeds every
// change to an OnUpdate callback, from which the cluster layer
// rebuilds its versioned consistent-hash ring.
//
// Design points, in the order they matter to the paper's claims:
//
//   - Suspicion before conviction. A failed probe marks a member
//     Suspect, not Dead, and a Suspect keeps its ring arcs. One lost
//     datagram therefore cannot move block ownership; only a member
//     that stays silent through the suspicion timeout (and through
//     indirect probes from other vantage points) is removed.
//
//   - Incarnation refutation. Every member numbers its own liveness.
//     A falsely suspected member that hears the rumor about itself
//     bumps its incarnation and re-announces Alive, which dominates
//     the stale Suspect at merge. A restarted member resurrects the
//     same way: it refutes its own tombstone with a higher
//     incarnation, so rejoin needs no operator action.
//
//   - Full-state piggyback. Every ping, ack, and ping-req carries the
//     sender's entire member table. At fleet sizes this tier targets
//     (the paper's clusters are single-digit nodes) that is cheaper
//     than bookkeeping a broadcast queue, and it makes every received
//     datagram a complete anti-entropy exchange.
package membership

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// indirectProbes is how many peers relay an indirect probe after a
// direct one times out.
const indirectProbes = 2

// Config configures one member.
type Config struct {
	// Self is this member's advertise address (host:port) — its
	// identity in every table and the address peers gossip back.
	Self string
	// Seeds are addresses to contact at start (and whenever the table
	// is otherwise empty) to join an existing fleet. Joining an empty
	// seed list bootstraps a fleet of one.
	Seeds []string
	// ProbeInterval is the failure-detector period (0 = 100ms). One
	// probe waits half of it for its ack.
	ProbeInterval time.Duration
	// SuspicionTimeout is how long a Suspect may stay silent before it
	// is declared Dead (0 = 8×ProbeInterval).
	SuspicionTimeout time.Duration
	// Transport carries datagrams (nil = UDP bound to Self's port).
	Transport Transport
	// OnUpdate fires after every table change with the new view. It is
	// called from gossip goroutines, never under the internal lock;
	// implementations may call back into View/Alive freely.
	OnUpdate func(View)
	// Intercept, when set, is consulted before every datagram send
	// with the destination address; a non-nil return drops the send.
	// The fault-injection harness uses it to script partitions.
	Intercept func(to string) error
	// Logf receives debug logging (nil = silent).
	Logf func(format string, args ...any)
}

// View is an immutable snapshot of the fleet: every non-dead member,
// sorted by address, plus a version that increments on every change.
type View struct {
	Version uint64
	Members []Member
}

// Addrs returns the view's member addresses (sorted).
func (v View) Addrs() []string {
	addrs := make([]string, len(v.Members))
	for i, m := range v.Members {
		addrs[i] = m.Addr
	}
	return addrs
}

type memberRow struct {
	Member
	suspectedAt time.Time
}

type relayEntry struct {
	origin string // who asked us to probe
	seq    uint32 // the sequence number they are waiting on
	at     time.Time
}

// Membership is one member's view of the fleet and the goroutines
// that keep it current.
type Membership struct {
	cfg Config
	tr  Transport

	mu      sync.Mutex
	rows    map[string]*memberRow
	version uint64
	seq     uint32
	acks    map[uint32]chan struct{}
	relays  map[uint32]relayEntry
	rrIdx   int
	seedIdx int
	started bool
	closed  bool

	quit chan struct{}
	wg   sync.WaitGroup
}

// New validates cfg and prepares a member; Start launches it.
func New(cfg Config) (*Membership, error) {
	if cfg.Self == "" {
		return nil, fmt.Errorf("membership: Config.Self required")
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = 100 * time.Millisecond
	}
	if cfg.SuspicionTimeout == 0 {
		cfg.SuspicionTimeout = 8 * cfg.ProbeInterval
	}
	m := &Membership{
		cfg:    cfg,
		rows:   make(map[string]*memberRow),
		acks:   make(map[uint32]chan struct{}),
		relays: make(map[uint32]relayEntry),
		quit:   make(chan struct{}),
	}
	m.rows[cfg.Self] = &memberRow{Member: Member{Addr: cfg.Self, State: Alive, Incarnation: 1}}
	m.version = 1
	return m, nil
}

// Start binds the transport and launches the receive and probe loops.
func (m *Membership) Start() error {
	m.mu.Lock()
	if m.started {
		m.mu.Unlock()
		panic("membership: Start called twice")
	}
	m.started = true
	m.mu.Unlock()

	if m.cfg.Transport == nil {
		tr, err := ListenUDP(m.cfg.Self)
		if err != nil {
			return fmt.Errorf("membership: bind gossip socket: %w", err)
		}
		m.cfg.Transport = tr
	}
	m.tr = m.cfg.Transport

	m.wg.Add(2)
	go m.recvLoop()
	go m.probeLoop()

	// Announce ourselves to the seeds right away; the probe loop keeps
	// retrying while the table is empty.
	for _, s := range m.cfg.Seeds {
		if s != m.cfg.Self {
			m.sendTo(MsgPing, m.nextSeq(), s, "")
		}
	}
	return nil
}

// Close stops gossip. The member does not announce departure — peers
// detect the silence exactly as they would a crash, which is the only
// exit path a cache node actually exercises.
func (m *Membership) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	m.mu.Unlock()
	close(m.quit)
	if m.tr != nil {
		m.tr.Close()
	}
	m.wg.Wait()
	return nil
}

// View returns the current fleet snapshot.
func (m *Membership) View() View {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.viewLocked()
}

// Alive returns the addresses of every non-dead member, sorted.
func (m *Membership) Alive() []string { return m.View().Addrs() }

// Incarnation returns this member's own incarnation number.
func (m *Membership) Incarnation() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.rows[m.cfg.Self].Incarnation
}

func (m *Membership) viewLocked() View {
	v := View{Version: m.version}
	for _, r := range m.rows {
		if r.State != Dead {
			v.Members = append(v.Members, r.Member)
		}
	}
	sort.Slice(v.Members, func(i, j int) bool { return v.Members[i].Addr < v.Members[j].Addr })
	return v
}

func (m *Membership) logf(format string, args ...any) {
	if m.cfg.Logf != nil {
		m.cfg.Logf("membership %s: "+format, append([]any{m.cfg.Self}, args...)...)
	}
}

// withTable runs fn under the lock and fires OnUpdate afterwards if
// fn changed the table version. OnUpdate always runs outside the
// lock so it may re-enter View/Alive.
func (m *Membership) withTable(fn func()) {
	m.mu.Lock()
	before := m.version
	fn()
	changed := m.version != before
	var v View
	if changed {
		v = m.viewLocked()
	}
	cb := m.cfg.OnUpdate
	m.mu.Unlock()
	if changed && cb != nil {
		cb(v)
	}
}

func (m *Membership) nextSeq() uint32 {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.seq++
	return m.seq
}

// snapshotMembers copies the full table (tombstones included) for
// piggybacking.
func (m *Membership) snapshotMembers() []Member {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Member, 0, len(m.rows))
	for _, r := range m.rows {
		out = append(out, r.Member)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// sendTo encodes and sends one message carrying the full table.
func (m *Membership) sendTo(t MsgType, seq uint32, to, target string) {
	msg := &Message{Type: t, Seq: seq, From: m.cfg.Self, Target: target, Members: m.snapshotMembers()}
	buf, err := Encode(msg)
	if err != nil {
		m.logf("encode %s: %v", t, err)
		return
	}
	if ic := m.cfg.Intercept; ic != nil {
		if err := ic(to); err != nil {
			return // injected drop
		}
	}
	if err := m.tr.WriteTo(buf, to); err != nil {
		m.logf("send %s to %s: %v", t, to, err)
	}
}

// ---- receive path ----

func (m *Membership) recvLoop() {
	defer m.wg.Done()
	buf := make([]byte, MaxMessageSize)
	for {
		n, _, err := m.tr.ReadFrom(buf)
		if err != nil {
			select {
			case <-m.quit:
				return
			default:
			}
			if err == ErrTransportClosed {
				return
			}
			m.logf("recv: %v", err)
			continue
		}
		msg, err := Decode(buf[:n])
		if err != nil {
			m.logf("decode: %v", err)
			continue
		}
		m.handle(msg)
	}
}

func (m *Membership) handle(msg *Message) {
	// Merge first: every datagram is an anti-entropy exchange, and a
	// ping that carries a rumor about US must be refuted in the very
	// ack we are about to send.
	m.merge(msg)

	switch msg.Type {
	case MsgPing:
		m.sendTo(MsgAck, msg.Seq, msg.From, "")
	case MsgPingReq:
		if msg.Target == "" || msg.Target == m.cfg.Self {
			// Probing us by relay: answer directly.
			m.sendTo(MsgAck, msg.Seq, msg.From, "")
			return
		}
		relaySeq := m.nextSeq()
		m.mu.Lock()
		m.relays[relaySeq] = relayEntry{origin: msg.From, seq: msg.Seq, at: time.Now()}
		m.mu.Unlock()
		m.sendTo(MsgPing, relaySeq, msg.Target, "")
	case MsgAck:
		m.mu.Lock()
		if ch, ok := m.acks[msg.Seq]; ok {
			delete(m.acks, msg.Seq)
			m.mu.Unlock()
			close(ch)
			return
		}
		r, ok := m.relays[msg.Seq]
		if ok {
			delete(m.relays, msg.Seq)
		}
		m.mu.Unlock()
		if ok {
			// Indirect probe succeeded: relay the ack to the origin.
			m.sendTo(MsgAck, r.seq, r.origin, "")
		}
	}
}

// merge folds a received table into ours. Precedence per member:
// higher incarnation wins outright; at equal incarnation the stronger
// claim wins (Dead > Suspect > Alive), which is what makes a
// tombstone sticky until the member itself refutes it.
func (m *Membership) merge(msg *Message) {
	m.withTable(func() {
		now := time.Now()
		for _, rm := range msg.Members {
			if rm.Addr == m.cfg.Self {
				m.mergeSelfLocked(rm)
				continue
			}
			cur, ok := m.rows[rm.Addr]
			if !ok {
				row := &memberRow{Member: rm}
				if rm.State == Suspect {
					row.suspectedAt = now
				}
				m.rows[rm.Addr] = row
				m.version++
				m.logf("learned %s %s inc=%d", rm.Addr, rm.State, rm.Incarnation)
				continue
			}
			if rm.Incarnation > cur.Incarnation ||
				(rm.Incarnation == cur.Incarnation && rm.State > cur.State) {
				if rm.State == Suspect && cur.State != Suspect {
					cur.suspectedAt = now
				}
				cur.Member = rm
				m.version++
				m.logf("merged %s %s inc=%d", rm.Addr, rm.State, rm.Incarnation)
			}
		}
		// The sender spoke: direct evidence it is alive. Clear a local
		// suspicion without waiting for the gossip round-trip. (The
		// incarnation is unchanged, so a concurrent Suspect rumor can
		// still win the merge until the member's own refutation lands;
		// this is a latency optimisation, not the correctness path.)
		if cur, ok := m.rows[msg.From]; ok && cur.State == Suspect {
			cur.State = Alive
			m.version++
		}
	})
}

// mergeSelfLocked handles rumors about this member itself: any claim
// that we are not Alive is refuted by bumping our incarnation past
// the rumor's, which makes our next announcement dominate everywhere.
func (m *Membership) mergeSelfLocked(rm Member) {
	self := m.rows[m.cfg.Self]
	if rm.State != Alive && rm.Incarnation >= self.Incarnation {
		self.Incarnation = rm.Incarnation + 1
		self.State = Alive
		m.version++
		m.logf("refuting %s rumor: incarnation now %d", rm.State, self.Incarnation)
	} else if rm.State == Alive && rm.Incarnation > self.Incarnation {
		self.Incarnation = rm.Incarnation
		m.version++
	}
}

// ---- probe path ----

func (m *Membership) probeLoop() {
	defer m.wg.Done()
	t := time.NewTicker(m.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-m.quit:
			return
		case <-t.C:
		}
		m.expireSuspects()
		m.pruneRelays()

		direct, suspect := m.pickTargets()
		if direct == "" {
			// Nobody to probe: keep knocking on the seeds so a fleet
			// that exists before we do eventually hears us.
			if s := m.pickSeed(); s != "" {
				m.sendTo(MsgPing, m.nextSeq(), s, "")
			}
			continue
		}
		m.wg.Add(1)
		go m.probe(direct)
		if suspect != "" && suspect != direct {
			// Probe the longest-suspected member every round too: the
			// ping piggybacks the Suspect rumor, so a live member sees
			// it and refutes well inside the suspicion timeout.
			m.wg.Add(1)
			go m.probe(suspect)
		}
	}
}

// pickTargets returns the round-robin probe target and the
// longest-suspected member (either may be "").
func (m *Membership) pickTargets() (direct, suspect string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var candidates []string
	var oldest time.Time
	for addr, r := range m.rows {
		if addr == m.cfg.Self || r.State == Dead {
			continue
		}
		candidates = append(candidates, addr)
		if r.State == Suspect && (suspect == "" || r.suspectedAt.Before(oldest)) {
			suspect, oldest = addr, r.suspectedAt
		}
	}
	if len(candidates) == 0 {
		return "", ""
	}
	sort.Strings(candidates)
	m.rrIdx = (m.rrIdx + 1) % len(candidates)
	return candidates[m.rrIdx], suspect
}

func (m *Membership) pickSeed() string {
	var seeds []string
	for _, s := range m.cfg.Seeds {
		if s != m.cfg.Self {
			seeds = append(seeds, s)
		}
	}
	if len(seeds) == 0 {
		return ""
	}
	m.mu.Lock()
	m.seedIdx = (m.seedIdx + 1) % len(seeds)
	i := m.seedIdx
	m.mu.Unlock()
	return seeds[i]
}

// probe runs one SWIM round against addr: direct ping, then indirect
// ping-reqs through other members, then suspicion.
func (m *Membership) probe(addr string) {
	defer m.wg.Done()
	seq := m.nextSeq()
	ch := make(chan struct{})
	m.mu.Lock()
	m.acks[seq] = ch
	m.mu.Unlock()
	defer func() {
		m.mu.Lock()
		delete(m.acks, seq)
		m.mu.Unlock()
	}()

	m.sendTo(MsgPing, seq, addr, "")
	if m.waitAck(ch) {
		m.confirmAlive(addr)
		return
	}

	// Indirect round: ask up to indirectProbes other members to probe
	// addr on our behalf; their acks relay back carrying our seq.
	relays := m.relayCandidates(addr)
	for _, r := range relays {
		m.sendTo(MsgPingReq, seq, r, addr)
	}
	if len(relays) > 0 && m.waitAck(ch) {
		m.confirmAlive(addr)
		return
	}
	m.suspectMember(addr)
}

func (m *Membership) waitAck(ch chan struct{}) bool {
	t := time.NewTimer(m.cfg.ProbeInterval / 2)
	defer t.Stop()
	select {
	case <-ch:
		return true
	case <-t.C:
		return false
	case <-m.quit:
		return true // shutting down: no verdicts
	}
}

func (m *Membership) relayCandidates(exclude string) []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []string
	for addr, r := range m.rows {
		if addr == m.cfg.Self || addr == exclude || r.State != Alive {
			continue
		}
		out = append(out, addr)
	}
	sort.Strings(out)
	if len(out) > indirectProbes {
		out = out[:indirectProbes]
	}
	return out
}

func (m *Membership) confirmAlive(addr string) {
	m.withTable(func() {
		if r, ok := m.rows[addr]; ok && r.State == Suspect {
			r.State = Alive
			m.version++
		}
	})
}

func (m *Membership) suspectMember(addr string) {
	m.withTable(func() {
		r, ok := m.rows[addr]
		if !ok || r.State != Alive {
			return
		}
		r.State = Suspect
		r.suspectedAt = time.Now()
		m.version++
		m.logf("suspect %s inc=%d", addr, r.Incarnation)
	})
}

// expireSuspects convicts members that stayed silent through the
// whole suspicion window.
func (m *Membership) expireSuspects() {
	m.withTable(func() {
		now := time.Now()
		for addr, r := range m.rows {
			if r.State == Suspect && now.Sub(r.suspectedAt) > m.cfg.SuspicionTimeout {
				r.State = Dead
				m.version++
				m.logf("declared %s dead inc=%d", addr, r.Incarnation)
			}
		}
	})
}

func (m *Membership) pruneRelays() {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := time.Now()
	for seq, r := range m.relays {
		if now.Sub(r.at) > 2*time.Second {
			delete(m.relays, seq)
		}
	}
}
