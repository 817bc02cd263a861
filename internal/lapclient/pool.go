package lapclient

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/wire"
)

// ErrNoLiveConn reports that every connection in a pool is dead.
var ErrNoLiveConn = errors.New("lapclient: no live connection in pool")

// Pool is a fixed set of pipelined connections fronting one server.
// Calls are spread round-robin across the connections; each connection
// multiplexes its callers through the in-flight window.
//
// The pool survives connection churn. A connection whose reader has
// died is skipped on pick, and a request that fails with a transport
// error — the connection died under it mid-flight — is re-issued on a
// surviving connection, up to one attempt per pool slot, so churn
// costs latency rather than losing the request. (Re-issue is safe
// because every op is idempotent: reads don't mutate, writes install
// the same bytes, closes park a chain that re-parks harmlessly.)
// Server refusals (*ServerError) are never retried: the server
// answered. Once every connection is dead the pool errors with
// ErrNoLiveConn, and its owner dials a new one.
//
// Safe for concurrent use — the replayer shares one Pool across every
// process goroutine.
type Pool struct {
	conns []*Conn
	next  atomic.Uint32
}

// DialPool opens nconns connections (0 = 4) with the given
// per-connection window (0 = DefaultWindow).
func DialPool(addr string, nconns, window int) (*Pool, error) {
	return dialPool(addr, nconns, window, nil)
}

// dialPool is DialPool with a connection interposer applied to every
// member connection (nil = none).
func dialPool(addr string, nconns, window int, wrap ConnWrap) (*Pool, error) {
	if nconns <= 0 {
		nconns = 4
	}
	p := &Pool{conns: make([]*Conn, 0, nconns)}
	for i := 0; i < nconns; i++ {
		c, err := DialConnWith(addr, window, wrap)
		if err != nil {
			p.Close()
			return nil, fmt.Errorf("lapclient: pool conn %d: %w", i, err)
		}
		p.conns = append(p.conns, c)
	}
	return p, nil
}

// Info returns the server self-description from the handshake.
func (p *Pool) Info() PingInfo { return p.conns[0].Info() }

// Close tears down every connection.
func (p *Pool) Close() error {
	var first error
	for _, c := range p.conns {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Live returns how many connections can still carry requests.
func (p *Pool) Live() int {
	n := 0
	for _, c := range p.conns {
		if !c.Dead() {
			n++
		}
	}
	return n
}

// pick selects the next live connection round-robin, skipping
// connections whose peer has torn them down.
func (p *Pool) pick() (*Conn, error) {
	n := uint32(len(p.conns))
	start := p.next.Add(1)
	for i := uint32(0); i < n; i++ {
		if c := p.conns[(start+i)%n]; !c.Dead() {
			return c, nil
		}
	}
	return nil, ErrNoLiveConn
}

// retriable reports an error worth re-issuing on another connection: a
// transport failure, where the server never answered. A refusal is
// final.
func retriable(err error) bool {
	var se *ServerError
	return !errors.As(err, &se)
}

// Do runs one exchange on a picked connection (see Conn.Do),
// re-issuing on transport errors until the per-request budget (one
// attempt per slot, plus the first) is spent. Closure-free on purpose:
// this is the cluster fetch hot path, and the remote-hit alloc budget
// is zero (TestRemoteHitAllocs).
func (p *Pool) Do(h wire.Header, payload []byte, dsts [][]byte) (wire.Header, []byte, error) {
	var last error
	for attempt := 0; attempt <= len(p.conns); attempt++ {
		c, err := p.pick()
		if err != nil {
			if last != nil {
				err = last
			}
			return wire.Header{}, nil, err
		}
		rh, data, err := c.Do(h, payload, dsts)
		if err == nil || !retriable(err) {
			return rh, data, err
		}
		last = err
	}
	return wire.Header{}, nil, last
}
