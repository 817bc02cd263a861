package membership

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// memHub is an in-memory datagram fabric: deterministic delivery,
// scriptable partitions, no real sockets. Each transport owns a
// buffered inbox; sends are non-blocking (a full inbox drops, which
// is exactly UDP's contract).
type memHub struct {
	mu      sync.Mutex
	inboxes map[string]chan memPacket
	cut     map[[2]string]bool // directed drop rules
}

type memPacket struct {
	from string
	data []byte
}

func newMemHub() *memHub {
	return &memHub{inboxes: make(map[string]chan memPacket), cut: make(map[[2]string]bool)}
}

// Cut drops every datagram from a to b (one direction).
func (h *memHub) Cut(a, b string) {
	h.mu.Lock()
	h.cut[[2]string{a, b}] = true
	h.mu.Unlock()
}

// Heal removes every drop rule.
func (h *memHub) Heal() {
	h.mu.Lock()
	h.cut = make(map[[2]string]bool)
	h.mu.Unlock()
}

func (h *memHub) transport(addr string) *memTransport {
	h.mu.Lock()
	defer h.mu.Unlock()
	inbox := make(chan memPacket, 256)
	h.inboxes[addr] = inbox
	return &memTransport{hub: h, addr: addr, inbox: inbox, closed: make(chan struct{})}
}

type memTransport struct {
	hub    *memHub
	addr   string
	inbox  chan memPacket
	closed chan struct{}
	once   sync.Once
}

func (t *memTransport) WriteTo(p []byte, addr string) error {
	t.hub.mu.Lock()
	dropped := t.hub.cut[[2]string{t.addr, addr}]
	inbox := t.hub.inboxes[addr]
	t.hub.mu.Unlock()
	if dropped || inbox == nil {
		return nil // lost datagram: gossip's problem to tolerate
	}
	data := make([]byte, len(p))
	copy(data, p)
	select {
	case inbox <- memPacket{from: t.addr, data: data}:
	default:
	}
	return nil
}

func (t *memTransport) ReadFrom(p []byte) (int, string, error) {
	select {
	case pkt := <-t.inbox:
		n := copy(p, pkt.data)
		return n, pkt.from, nil
	case <-t.closed:
		return 0, "", ErrTransportClosed
	}
}

func (t *memTransport) Close() error {
	t.once.Do(func() {
		close(t.closed)
		t.hub.mu.Lock()
		if t.hub.inboxes[t.addr] == t.inbox {
			delete(t.hub.inboxes, t.addr)
		}
		t.hub.mu.Unlock()
	})
	return nil
}

func testConfig(hub *memHub, addr string, seeds []string) Config {
	return Config{
		Self:          addr,
		Seeds:         seeds,
		ProbeInterval: 10 * time.Millisecond,
		Transport:     hub.transport(addr),
	}
}

func start(t *testing.T, cfg Config) *Membership {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatalf("New(%s): %v", cfg.Self, err)
	}
	if err := m.Start(); err != nil {
		t.Fatalf("Start(%s): %v", cfg.Self, err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

func startMember(t *testing.T, hub *memHub, addr string, seeds []string) *Membership {
	t.Helper()
	return start(t, testConfig(hub, addr, seeds))
}

func waitFor(t *testing.T, what string, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func sees(m *Membership, want ...string) bool {
	return reflect.DeepEqual(m.alive(), want)
}

// TestJoinConverge: three members seeded off the first converge to
// one three-row table on every node.
func TestJoinConverge(t *testing.T) {
	hub := newMemHub()
	a := startMember(t, hub, "a", nil)
	b := startMember(t, hub, "b", []string{"a"})
	c := startMember(t, hub, "c", []string{"a"})
	for _, m := range []*Membership{a, b, c} {
		m := m
		waitFor(t, "converged view on "+m.cfg.Self, 3*time.Second, func() bool {
			return sees(m, "a", "b", "c")
		})
	}
}

// TestFailureDetection: a member that goes silent is convicted and
// drops out of every survivor's view.
func TestFailureDetection(t *testing.T) {
	hub := newMemHub()
	a := startMember(t, hub, "a", nil)
	b := startMember(t, hub, "b", []string{"a"})
	c := startMember(t, hub, "c", []string{"a"})
	waitFor(t, "initial convergence", 3*time.Second, func() bool {
		return sees(a, "a", "b", "c") && sees(b, "a", "b", "c") && sees(c, "a", "b", "c")
	})
	b.Close()
	waitFor(t, "b convicted", 5*time.Second, func() bool {
		return sees(a, "a", "c") && sees(c, "a", "c")
	})
}

// TestCutLinkHeartbeatsRelay: a cut that only separates a and b (c
// talks to both) must not convict anyone — c's table carries a's
// heartbeats to b and b's to a.
func TestCutLinkHeartbeatsRelay(t *testing.T) {
	hub := newMemHub()
	a := startMember(t, hub, "a", nil)
	b := startMember(t, hub, "b", []string{"a"})
	c := startMember(t, hub, "c", []string{"a"})
	waitFor(t, "initial convergence", 3*time.Second, func() bool {
		return sees(a, "a", "b", "c") && sees(b, "a", "b", "c") && sees(c, "a", "b", "c")
	})
	hub.Cut("a", "b")
	hub.Cut("b", "a")
	// Hold the one-link partition across many suspicion windows.
	deadline := time.Now().Add(500 * time.Millisecond)
	for time.Now().Before(deadline) {
		for _, m := range []*Membership{a, b, c} {
			if len(m.alive()) != 3 {
				t.Fatalf("%s view shrank to %v during a single-link cut", m.cfg.Self, m.alive())
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRejoinResurrection: a convicted member that restarts hears its
// tombstone, outranks it with a higher incarnation and rejoins.
func TestRejoinResurrection(t *testing.T) {
	hub := newMemHub()
	a := startMember(t, hub, "a", nil)
	b := startMember(t, hub, "b", []string{"a"})
	waitFor(t, "initial convergence", 3*time.Second, func() bool {
		return sees(a, "a", "b") && sees(b, "a", "b")
	})
	b.Close()
	waitFor(t, "b convicted", 5*time.Second, func() bool { return sees(a, "a") })

	b2 := startMember(t, hub, "b", []string{"a"})
	waitFor(t, "b resurrected", 5*time.Second, func() bool {
		return sees(a, "a", "b") && sees(b2, "a", "b")
	})
	if inc := b2.incarnation(); inc < 2 {
		t.Errorf("restarted member incarnation = %d, want ≥ 2 (must out-number its tombstone)", inc)
	}
}

// TestRestartInsideSuspicionWindow: a member that restarts before
// anyone convicts it hears the live row of its earlier life, takes
// incarnation 2, and no survivor's view ever drops it.
func TestRestartInsideSuspicionWindow(t *testing.T) {
	hub := newMemHub()
	var watching, dropped atomic.Bool
	survivor := func(addr string, seeds []string) *Membership {
		cfg := testConfig(hub, addr, seeds)
		cfg.SuspicionTimeout = time.Minute
		cfg.OnUpdate = func(v View) {
			if watching.Load() && !slices.Contains(v.Addrs(), "b") {
				dropped.Store(true)
			}
		}
		return start(t, cfg)
	}
	a := survivor("a", nil)
	b := startMember(t, hub, "b", []string{"a"})
	c := survivor("c", []string{"a"})
	waitFor(t, "initial convergence", 3*time.Second, func() bool {
		return sees(a, "a", "b", "c") && sees(b, "a", "b", "c") && sees(c, "a", "b", "c")
	})
	// Let b's heartbeat climb well past what its next life reaches
	// before it first hears a survivor.
	time.Sleep(100 * time.Millisecond)
	watching.Store(true)
	b.Close()
	b2 := startMember(t, hub, "b", []string{"a"})
	waitFor(t, "survivors to hold b's second incarnation", 3*time.Second, func() bool {
		return b2.incarnation() == 2 && rowOf(a, "b").Incarnation == 2 && rowOf(c, "b").Incarnation == 2
	})
	if !sees(a, "a", "b", "c") || !sees(c, "a", "b", "c") {
		t.Errorf("survivor views after restart: a %v, c %v", a.alive(), c.alive())
	}
	if dropped.Load() {
		t.Error("a survivor's view dropped b across a restart inside the suspicion window")
	}
	if inc := b2.incarnation(); inc != 2 {
		t.Errorf("restarted member incarnation = %d, want 2", inc)
	}
}

func rowOf(m *Membership, addr string) Member {
	for _, r := range m.view().Members {
		if r.Addr == addr {
			return r
		}
	}
	return Member{}
}

// TestStableFleetVersionStill: heartbeats alone move no version, so in
// a stable fleet neither View.Version nor OnUpdate moves across 20
// gossip rounds.
func TestStableFleetVersionStill(t *testing.T) {
	hub := newMemHub()
	var updates atomic.Int64
	var ms []*Membership
	for _, addr := range []string{"a", "b", "c"} {
		cfg := testConfig(hub, addr, []string{"a"})
		cfg.SuspicionTimeout = time.Minute
		cfg.OnUpdate = func(View) { updates.Add(1) }
		ms = append(ms, start(t, cfg))
	}
	waitFor(t, "initial convergence", 3*time.Second, func() bool {
		return sees(ms[0], "a", "b", "c") && sees(ms[1], "a", "b", "c") && sees(ms[2], "a", "b", "c")
	})
	var before []uint64
	for _, m := range ms {
		before = append(before, m.view().Version)
	}
	n := updates.Load()
	beats := rowOf(ms[0], "b").Heartbeat
	time.Sleep(20 * 10 * time.Millisecond)
	for i, m := range ms {
		if v := m.view().Version; v != before[i] {
			t.Errorf("%s version moved %d → %d in a stable fleet", m.cfg.Self, before[i], v)
		}
	}
	if got := updates.Load(); got != n {
		t.Errorf("OnUpdate fired %d times in a stable fleet", got-n)
	}
	if rowOf(ms[0], "b").Heartbeat <= beats {
		t.Error("heartbeats did not advance: the fleet was not gossiping")
	}
}

// TestOnUpdateFires: every membership change surfaces through the
// callback with a monotonically increasing version.
func TestOnUpdateFires(t *testing.T) {
	hub := newMemHub()
	var mu sync.Mutex
	var versions []uint64
	cfg := testConfig(hub, "a", nil)
	cfg.OnUpdate = func(v View) {
		mu.Lock()
		versions = append(versions, v.Version)
		mu.Unlock()
	}
	start(t, cfg)
	startMember(t, hub, "b", []string{"a"})
	waitFor(t, "join callback", 3*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(versions) > 0
	})
	mu.Lock()
	defer mu.Unlock()
	for i := 1; i < len(versions); i++ {
		if versions[i] <= versions[i-1] {
			t.Errorf("OnUpdate versions not increasing: %v", versions)
		}
	}
}

// TestInterceptDropsSends: the fault hook sees every destination and
// a non-nil return suppresses the datagram.
func TestInterceptDropsSends(t *testing.T) {
	hub := newMemHub()
	var mu sync.Mutex
	dropped := 0
	cfg := testConfig(hub, "a", []string{"b"})
	cfg.Intercept = func(to string) error {
		mu.Lock()
		dropped++
		mu.Unlock()
		return errors.New("cut")
	}
	start(t, cfg)
	b := startMember(t, hub, "b", nil)
	time.Sleep(100 * time.Millisecond)
	mu.Lock()
	d := dropped
	mu.Unlock()
	if d == 0 {
		t.Error("intercept never consulted")
	}
	if len(b.alive()) != 1 {
		t.Errorf("b learned of a despite every send dropped: %v", b.alive())
	}
}

// TestUDPTransport exercises the production socket path end to end:
// two members on real loopback UDP ports converge.
func TestUDPTransport(t *testing.T) {
	trA, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	trB, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Each socket's port is the one the OS picked.
	addr := func(tr Transport) string { return tr.(*udpTransport).pc.LocalAddr().String() }
	mkcfg := func(tr Transport, seeds []string) Config {
		return Config{Self: addr(tr), Seeds: seeds, ProbeInterval: 10 * time.Millisecond, Transport: tr}
	}
	a := start(t, mkcfg(trA, nil))
	b := start(t, mkcfg(trB, []string{addr(trA)}))
	waitFor(t, "UDP convergence", 5*time.Second, func() bool {
		return len(a.alive()) == 2 && len(b.alive()) == 2
	})
}

// TestCodecRoundTrip pins the wire layout through every state.
func TestCodecRoundTrip(t *testing.T) {
	msgs := []*Message{
		{From: "a", Members: []Member{}},
		{From: "host:65535", Members: []Member{
			{Addr: "a", State: Alive, Incarnation: 1, Heartbeat: 0},
			{Addr: "b", State: Alive, Incarnation: 3, Heartbeat: 1<<64 - 1},
			{Addr: "c", State: Dead, Incarnation: 1<<63 + 9, Heartbeat: 7},
		}},
	}
	for _, want := range msgs {
		buf, err := Encode(want)
		if err != nil {
			t.Fatalf("Encode(%v): %v", want, err)
		}
		got, err := Decode(buf)
		if err != nil {
			t.Fatalf("Decode(%v): %v", want, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("round trip: got %+v want %+v", got, want)
		}
	}
}

// TestDecodeRejects pins the decoder's refusals: truncation, bad
// version, bad state, bogus lengths, trailing garbage.
func TestDecodeRejects(t *testing.T) {
	good, err := Encode(&Message{From: "a", Members: []Member{{Addr: "b", State: Alive, Incarnation: 1, Heartbeat: 4}}})
	if err != nil {
		t.Fatal(err)
	}
	badState := append([]byte{}, good...)
	badState[len(good)-17] = 9
	cases := map[string][]byte{
		"empty":         {},
		"short":         good[:4],
		"bad version":   append([]byte{1}, good[1:]...),
		"bad state":     badState,
		"empty from":    {CodecVersion, 0, 0, 0, 0},
		"trailing":      append(append([]byte{}, good...), 0),
		"truncated row": good[:len(good)-3],
	}
	for name, buf := range cases {
		if _, err := Decode(buf); err == nil {
			t.Errorf("Decode(%s) accepted garbage", name)
		}
	}
}

// FuzzMembershipDecode: the codec must never panic on arbitrary
// datagrams, and anything it accepts must re-encode byte-identically.
func FuzzMembershipDecode(f *testing.F) {
	seedMsgs := []*Message{
		{From: "127.0.0.1:9000"},
		{From: "a", Members: []Member{{Addr: "b", State: Alive, Incarnation: 2, Heartbeat: 40}}},
		{From: "a", Members: []Member{
			{Addr: "a", State: Alive, Incarnation: 1, Heartbeat: 9},
			{Addr: "b", State: Dead, Incarnation: 5, Heartbeat: 3},
		}},
	}
	for _, m := range seedMsgs {
		buf, err := Encode(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	f.Add([]byte{CodecVersion, 1, 0, 'a', 0, 0})
	f.Add([]byte(fmt.Sprintf("%c garbage", CodecVersion)))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			return
		}
		buf, err := Encode(m)
		if err != nil {
			t.Fatalf("decoded message does not re-encode: %v (%+v)", err, m)
		}
		if !reflect.DeepEqual(buf, data) {
			t.Fatalf("re-encode differs:\n in: %x\nout: %x", data, buf)
		}
	})
}
