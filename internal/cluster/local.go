package cluster

import (
	"fmt"
	"net"
	"time"

	"repro/internal/lapcache"
)

// LocalNode is one member of an in-process cluster started by
// StartLocal: a real lapcached stack (engine, TCP server, cluster
// node) on a loopback port. It remembers enough of its birth
// configuration to be killed and restarted on the same advertise
// address — the harness behind this package's owner-failure and
// owner-return tests.
type LocalNode struct {
	Addr   string
	Index  int
	Engine *lapcache.Engine
	Server *lapcache.Server
	Node   *Node

	addrs []string
	mkcfg func(i int, addrs []string) lapcache.Config
	opts  StartLocalOpts
}

// StartLocalOpts customises StartLocalWith's per-node assembly; the
// zero value reproduces StartLocal exactly.
type StartLocalOpts struct {
	// TweakNode edits node i's cluster config before NewNode — the
	// fault harness installs DialFunc here to interpose on peer links.
	TweakNode func(i int, cfg *Config)
	// TweakServer edits node i's server before it starts serving —
	// ConnWrap, IdleTimeout, drain tuning.
	TweakServer func(i int, srv *lapcache.Server)
	// NoWaitReady returns as soon as every node is serving, without
	// waiting for the peer mesh: forwards that outrun a dial fail with
	// lapcache.ErrOwnerUnreachable, which is exactly what a fault
	// harness wants to exercise (under injected dial faults a full mesh
	// may take many backoff rounds to form).
	NoWaitReady bool
}

// StartLocal boots an n-node cooperative cluster inside this process,
// every node listening on its own loopback port and peered with the
// others — the harness behind the cluster suite, the chaos replay and
// the benchmark's coop_mixed workload. mkcfg builds node i's engine
// config given the full member address list (Remote is filled in by
// the harness; a Store must be provided). The returned stop function
// tears everything down in reverse order and is safe to call after a
// partial failure path has already cleaned up.
//
// Listeners are bound first so that every address is known before any
// ring is built; then nodes, engines and servers come up, and finally
// the peer meshes are dialed to readiness.
func StartLocal(n int, mkcfg func(i int, addrs []string) lapcache.Config) ([]*LocalNode, func(), error) {
	return StartLocalWith(n, mkcfg, StartLocalOpts{})
}

// StartLocalWith is StartLocal with per-node assembly hooks.
func StartLocalWith(n int, mkcfg func(i int, addrs []string) lapcache.Config, opts StartLocalOpts) ([]*LocalNode, func(), error) {
	if n <= 0 {
		return nil, nil, fmt.Errorf("cluster: StartLocal needs n > 0")
	}
	lns := make([]net.Listener, 0, n)
	nodes := make([]*LocalNode, 0, n)
	stop := func() {
		for _, m := range nodes {
			if m.Server != nil {
				m.Server.Close()
			}
		}
		for _, m := range nodes {
			if m.Node != nil {
				m.Node.Close()
			}
		}
		for _, m := range nodes {
			if m.Engine != nil {
				m.Engine.Shutdown()
			}
		}
		for _, ln := range lns {
			ln.Close() // no-op for listeners a Server already owns
		}
	}

	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			stop()
			return nil, nil, err
		}
		lns = append(lns, ln)
		addrs[i] = ln.Addr().String()
	}

	for i := 0; i < n; i++ {
		m := &LocalNode{Addr: addrs[i], Index: i, addrs: addrs, mkcfg: mkcfg, opts: opts}
		if err := m.boot(lns[i]); err != nil {
			stop()
			return nil, nil, err
		}
		nodes = append(nodes, m)
	}

	for _, m := range nodes {
		m.Node.Start()
	}
	if !opts.NoWaitReady {
		for _, m := range nodes {
			if err := m.Node.WaitReady(5 * time.Second); err != nil {
				stop()
				return nil, nil, err
			}
		}
	}
	return nodes, stop, nil
}

// boot assembles this member's stack on ln and starts serving (but
// does not Start the health loops — StartLocalWith and restart
// sequence that themselves).
func (m *LocalNode) boot(ln net.Listener) error {
	ncfg := Config{
		Self:         m.Addr,
		Peers:        m.addrs,
		PingInterval: 50 * time.Millisecond,
	}
	if m.opts.TweakNode != nil {
		m.opts.TweakNode(m.Index, &ncfg)
	}
	node, err := NewNode(ncfg)
	if err != nil {
		return err
	}
	cfg := m.mkcfg(m.Index, m.addrs)
	cfg.Remote = node
	eng, err := lapcache.New(cfg)
	if err != nil {
		node.Close()
		return err
	}
	srv := lapcache.NewServer(eng)
	if m.opts.TweakServer != nil {
		m.opts.TweakServer(m.Index, srv)
	}
	m.Engine, m.Server, m.Node = eng, srv, node
	go srv.Serve(ln) //nolint:errcheck // exits on Close
	return nil
}

// kill tears this member down — server, health loops, engine — while
// the rest of the cluster keeps running; peers mark it down and fail
// every request of its files until it returns. The fields stay set (their
// Close/Shutdown are idempotent, so the cluster-wide stop function
// remains safe); restart replaces them.
func (m *LocalNode) kill() {
	m.Server.Close()
	m.Node.Close()
	m.Engine.Shutdown()
}

// restart boots a fresh stack — new engine, server and health loops —
// on the same advertise address a kill vacated, then waits for the
// returned member to see its peers. The surviving nodes' health loops
// redial it on their own (jittered backoff), so full mesh recovery
// lags this call by up to one backoff interval.
func (m *LocalNode) restart(timeout time.Duration) error {
	ln, err := net.Listen("tcp", m.Addr)
	if err != nil {
		return fmt.Errorf("cluster: restart rebind %s: %w", m.Addr, err)
	}
	if err := m.boot(ln); err != nil {
		ln.Close()
		return err
	}
	m.Node.Start()
	return m.Node.WaitReady(timeout)
}
