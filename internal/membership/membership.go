// Package membership is a heartbeat gossip failure detector (van
// Renesse, Minsky & Hayden, "A Gossip-Style Failure Detection
// Service", Middleware 1998). It answers exactly one question for the
// cooperative cache tier — "who is in the fleet right now?" — and
// feeds every change to an OnUpdate callback, from which the cluster
// layer rebuilds its versioned consistent-hash ring.
//
// There is one message: the sender's full member table, one row of
// (address, state, incarnation, heartbeat) per member. Each probe
// interval a member bumps its own heartbeat, convicts every row whose
// (incarnation, heartbeat) has not advanced for the suspicion timeout,
// and sends its table to every other live member — or to its seeds
// while it knows none.
//
// Design points, in the order they matter to the paper's claims:
//
//   - Conviction only after silence. A member keeps its ring arcs
//     until none of its heartbeats has reached us for a whole
//     suspicion timeout. One lost datagram therefore cannot move block
//     ownership, and a cut link cannot either while some third member
//     hears both ends: its table relays their heartbeats.
//
//   - Incarnations. A row outranks another when its incarnation is
//     higher; at equal incarnation a Dead row outranks an Alive one,
//     and between Alive rows the higher heartbeat wins. A member that
//     hears a row about itself outranking its own — its tombstone, or
//     a live row from an earlier life of its address — takes that
//     incarnation plus one and heartbeat 0, which outranks the rumor
//     everywhere. A datagram from a sender we hold Dead is answered at
//     once with our table: that is how a restarted member hears its
//     tombstone, so rejoin needs no operator action.
//
//   - News travels at once. A datagram that changes our table — a new
//     member, a state, an incarnation — is pushed on to every other
//     live member without waiting for the next period, so a joiner
//     converges in a round trip or two. Heartbeats alone change no
//     version and wait for the period.
//
//   - Full-state gossip. At the fleet sizes this tier targets (the
//     paper's clusters are single-digit nodes) sending the whole table
//     is cheaper than bookkeeping deltas, and it makes every received
//     datagram a complete anti-entropy exchange.
package membership

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Config configures one member.
type Config struct {
	// Self is this member's advertise address (host:port) — its
	// identity in every table and the address peers gossip back.
	Self string
	// Seeds are addresses to gossip to while the table holds no other
	// live member. Self is skipped, so the first member of a fleet may
	// list itself; an empty list bootstraps a fleet of one.
	Seeds []string
	// ProbeInterval is the gossip period (0 = 100ms).
	ProbeInterval time.Duration
	// SuspicionTimeout is how long a member's heartbeat may stay still
	// before it is declared Dead (0 = 8×ProbeInterval).
	SuspicionTimeout time.Duration
	// Transport carries datagrams (nil = UDP bound to Self's port).
	Transport Transport
	// OnUpdate fires after every table change with the new view. It is
	// called from gossip goroutines, never under the internal lock;
	// implementations may call back into the member freely.
	OnUpdate func(View)
	// Intercept, when set, is consulted before every datagram send
	// with the destination address; a non-nil return drops the send.
	// The fault-injection harness uses it to script partitions.
	Intercept func(to string) error
	// Logf receives debug logging (nil = silent).
	Logf func(format string, args ...any)
}

// View is an immutable snapshot of the fleet: every non-dead member,
// sorted by address, plus a version that moves when the set of rows,
// a state or an incarnation changes — never on a heartbeat alone.
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
	advanced time.Time // when (Incarnation, Heartbeat) last moved here
}

// outranks reports whether row a supersedes row b about the same
// member.
func outranks(a, b Member) bool {
	if a.Incarnation != b.Incarnation {
		return a.Incarnation > b.Incarnation
	}
	if a.State != b.State {
		return a.State == Dead
	}
	return a.State == Alive && a.Heartbeat > b.Heartbeat
}

// Membership is one member's view of the fleet and the goroutines
// that keep it current.
type Membership struct {
	cfg Config
	tr  Transport

	mu      sync.Mutex
	rows    map[string]*memberRow
	version uint64
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
		cfg:     cfg,
		rows:    map[string]*memberRow{cfg.Self: {Member: Member{Addr: cfg.Self, State: Alive, Incarnation: 1}}},
		version: 1,
		quit:    make(chan struct{}),
	}
	return m, nil
}

// Start binds the transport and launches the receive and gossip loops.
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
	go m.gossipLoop()
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

// view returns the current fleet snapshot.
func (m *Membership) view() View {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.viewLocked()
}

// alive returns the addresses of every non-dead member, sorted.
func (m *Membership) alive() []string { return m.view().Addrs() }

// incarnation returns this member's own incarnation number.
func (m *Membership) incarnation() uint64 {
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
// fn changed the table version, which it reports. OnUpdate always runs
// outside the lock so it may re-enter the member.
func (m *Membership) withTable(fn func()) (changed bool) {
	m.mu.Lock()
	before := m.version
	fn()
	changed = m.version != before
	var v View
	if changed {
		v = m.viewLocked()
	}
	cb := m.cfg.OnUpdate
	m.mu.Unlock()
	if changed && cb != nil {
		cb(v)
	}
	return changed
}

// table snapshots the full table, tombstones included, encodes it,
// and lists the other live members.
func (m *Membership) table() (buf []byte, live []string) {
	m.mu.Lock()
	msg := &Message{From: m.cfg.Self, Members: make([]Member, 0, len(m.rows))}
	for addr, r := range m.rows {
		msg.Members = append(msg.Members, r.Member)
		if addr != m.cfg.Self && r.State != Dead {
			live = append(live, addr)
		}
	}
	m.mu.Unlock()
	sort.Slice(msg.Members, func(i, j int) bool { return msg.Members[i].Addr < msg.Members[j].Addr })
	buf, err := Encode(msg)
	if err != nil {
		m.logf("encode: %v", err)
		return nil, nil
	}
	return buf, live
}

// send gossips one encoded table to each address.
func (m *Membership) send(buf []byte, to ...string) {
	if buf == nil {
		return // encode failed, and said so
	}
	for _, addr := range to {
		if ic := m.cfg.Intercept; ic != nil && ic(addr) != nil {
			continue // injected drop
		}
		if err := m.tr.WriteTo(buf, addr); err != nil {
			m.logf("send to %s: %v", addr, err)
		}
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
		changed, senderDead := m.merge(msg)
		if !changed && !senderDead {
			continue
		}
		table, live := m.table()
		if changed {
			m.send(table, live...)
		}
		if senderDead {
			m.send(table, msg.From)
		}
	}
}

// merge folds a received table into ours, row by row under outranks.
// It reports whether the version moved, and whether we still hold the
// sender Dead afterwards: a restarted member that has not heard of its
// death.
func (m *Membership) merge(msg *Message) (changed, senderDead bool) {
	changed = m.withTable(func() {
		now := time.Now()
		for _, rm := range msg.Members {
			if rm.Addr == m.cfg.Self {
				self := m.rows[m.cfg.Self]
				if outranks(rm, self.Member) {
					self.Incarnation = rm.Incarnation + 1
					self.Heartbeat = 0
					m.version++
					m.logf("refuting %s row inc=%d: incarnation now %d", rm.State, rm.Incarnation, self.Incarnation)
				}
				continue
			}
			cur, ok := m.rows[rm.Addr]
			if !ok {
				m.rows[rm.Addr] = &memberRow{Member: rm, advanced: now}
				m.version++
				m.logf("learned %s %s inc=%d", rm.Addr, rm.State, rm.Incarnation)
				continue
			}
			if !outranks(rm, cur.Member) {
				continue
			}
			if rm.State != cur.State || rm.Incarnation != cur.Incarnation {
				m.version++
				m.logf("merged %s %s inc=%d", rm.Addr, rm.State, rm.Incarnation)
			}
			cur.Member = rm
			cur.advanced = now
		}
		r, ok := m.rows[msg.From]
		senderDead = ok && r.State == Dead
	})
	return changed, senderDead
}

// ---- gossip path ----

func (m *Membership) gossipLoop() {
	defer m.wg.Done()
	t := time.NewTicker(m.cfg.ProbeInterval)
	defer t.Stop()
	for {
		// Gossip at once on start, so a joining member announces itself
		// to its seeds without waiting out the first interval.
		m.round()
		select {
		case <-m.quit:
			return
		case <-t.C:
		}
	}
}

// round is one gossip period: bump our heartbeat, convict the rows
// that stood still for the suspicion timeout, send the table to every
// other live member (or to the seeds while there is none).
func (m *Membership) round() {
	m.withTable(func() {
		now := time.Now()
		m.rows[m.cfg.Self].Heartbeat++
		for addr, r := range m.rows {
			if addr == m.cfg.Self || r.State == Dead {
				continue
			}
			if now.Sub(r.advanced) > m.cfg.SuspicionTimeout {
				r.State = Dead
				m.version++
				m.logf("declared %s dead inc=%d", addr, r.Incarnation)
			}
		}
	})
	table, live := m.table()
	if len(live) == 0 {
		for _, s := range m.cfg.Seeds {
			if s != m.cfg.Self {
				live = append(live, s)
			}
		}
	}
	m.send(table, live...)
}
