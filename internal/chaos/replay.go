package chaos

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/blockdev"
	"repro/internal/cluster"
	"repro/internal/faultinject"
	"repro/internal/lapcache"
	"repro/internal/lapclient"
	"repro/internal/wire"
	"repro/internal/workload"
)

// maxUnexpected bounds the recorded unexpected-error details; the
// counter keeps counting past it.
const maxUnexpected = 16

// stepAttempts bounds retries of one trace step across redials and
// refusals; a step that keeps failing is abandoned (the invariants
// care about error classification and data integrity, not per-op
// success).
const stepAttempts = 3

// ownerRetryPause is how long a step refused with its file's owner
// unreachable waits before its next attempt: one health-loop ping of
// the fleet, time for the faulted peer link to be redialed.
const ownerRetryPause = 20 * time.Millisecond

// nodeClient owns the one client connection to a node, redialing it —
// within a budget — whenever a fault kills it. All the replay
// processes sharded to that node share it.
type nodeClient struct {
	addr   string
	budget int

	mu      sync.Mutex
	conn    *lapclient.Conn
	redials int
	closed  bool
}

// get returns a live connection, dialing a fresh one when the current
// one is dead.
func (nc *nodeClient) get() (*lapclient.Conn, error) {
	nc.mu.Lock()
	defer nc.mu.Unlock()
	if nc.closed {
		return nil, errors.New("chaos: client closed")
	}
	if nc.conn != nil && !nc.conn.Dead() {
		return nc.conn, nil
	}
	if nc.conn != nil {
		nc.conn.Close()
		nc.conn = nil
	}
	if nc.redials >= nc.budget {
		return nil, fmt.Errorf("chaos: redial budget (%d) spent for %s", nc.budget, nc.addr)
	}
	nc.redials++
	c, err := lapclient.DialConn(nc.addr, 0)
	if err != nil {
		return nil, err
	}
	nc.conn = c
	return c, nil
}

// close tears the client down; in-flight callers fail fast.
func (nc *nodeClient) close() int {
	nc.mu.Lock()
	defer nc.mu.Unlock()
	nc.closed = true
	if nc.conn != nil {
		nc.conn.Close()
		nc.conn = nil
	}
	return nc.redials
}

// replayer drives the trace through the faulted cluster, classifying
// every error and checking every successful read against the oracle.
type replayer struct {
	tr      *workload.Trace
	clients []*nodeClient
	// tolerate marks transport errors as expected: the plan injects
	// faults on the wire or the dial path, so torn connections are part
	// of the schedule. Without such rules any transport error is a bug.
	tolerate bool

	mu            sync.Mutex
	requests      int
	reads         int
	hits          int
	writes        int
	redials       int
	mismatches    int
	injectedErrs  int
	transportErrs int
	unexpectedN   int
	unexpected    []string
}

func newReplayer(nodes []*cluster.LocalNode, inj *faultinject.Injector, plan faultinject.Plan, tr *workload.Trace) *replayer {
	r := &replayer{tr: tr}
	for _, rule := range plan.Rules {
		switch rule.Site {
		case faultinject.SiteConnSend, faultinject.SiteConnRecv, faultinject.SitePeerDial:
			if rule.P > 0 {
				r.tolerate = true
			}
		}
	}
	for _, m := range nodes {
		r.clients = append(r.clients, &nodeClient{addr: m.Addr, budget: redialBudget})
	}
	return r
}

// run replays every traced process, one goroutine each, processes
// sharded round-robin over the nodes like a real client population.
func (r *replayer) run() {
	var wg sync.WaitGroup
	for pi := range r.tr.Procs {
		wg.Add(1)
		go func(pi int) {
			defer wg.Done()
			nc := r.clients[pi%len(r.clients)]
			for _, s := range r.tr.Procs[pi].Steps {
				r.step(nc, s)
			}
		}(pi)
	}
	wg.Wait()
}

// closeClients tears down every node client (unblocking a wedged
// replay goroutine, if the watchdog fired) and tallies redials.
func (r *replayer) closeClients() {
	total := 0
	for _, nc := range r.clients {
		total += nc.close()
	}
	r.mu.Lock()
	r.redials = total
	r.mu.Unlock()
}

// stats returns a locked snapshot of the replay counters (safe even
// while a wedged replay goroutine is still failing in the background).
func (r *replayer) stats() (requests, reads, hits, writes, redials, mismatches, injected, transport, unexpectedN int, unexpected []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.requests, r.reads, r.hits, r.writes, r.redials, r.mismatches,
		r.injectedErrs, r.transportErrs, r.unexpectedN, append([]string(nil), r.unexpected...)
}

// isInjected reports whether err is one the plan manufactured. The
// marker string is the contract: injected errors cross the wire as
// ServerError messages, where error identity cannot survive.
func isInjected(err error) bool {
	return err != nil && strings.Contains(err.Error(), "faultinject:")
}

func (r *replayer) noteUnexpected(detail string) {
	r.mu.Lock()
	r.unexpectedN++
	if len(r.unexpected) < maxUnexpected {
		r.unexpected = append(r.unexpected, detail)
	}
	r.mu.Unlock()
}

// step issues one trace step, retrying through redials, and
// classifies whatever comes back:
//
//   - success: reads are verified byte for byte against the oracle.
//   - injected error (the marker): expected, counted, done — the
//     system surfaced the fault as a typed failure instead of wedging
//     or lying.
//   - owner unreachable (the sentinel's text): expected while peer
//     links fail, and retried after ownerRetryPause.
//   - other ServerError: the server refused a well-formed request —
//     unexpected, recorded.
//   - transport error: tolerated (and retried on a fresh connection)
//     iff the plan targets the wire; otherwise recorded.
func (r *replayer) step(nc *nodeClient, s workload.Step) {
	r.mu.Lock()
	r.requests++
	r.mu.Unlock()

	for attempt := 0; attempt < stepAttempts; attempt++ {
		conn, err := nc.get()
		if err != nil {
			r.classify(err, "dial "+nc.addr)
			time.Sleep(2 * time.Millisecond)
			continue
		}
		err = r.issue(conn, s)
		if err == nil {
			return
		}
		// A transport error has killed conn, so the next get redials.
		if r.classify(err, fmt.Sprintf("%s f%d @%d+%d on %s", s.Kind, s.File, s.Offset, s.Size, nc.addr)) {
			return
		}
	}
}

// classify buckets one error; done reports that the step should not
// be retried (the server answered — with a refusal — so the request
// itself was delivered and the connection is fine), except a refusal
// with the file's owner unreachable, which is retried after
// ownerRetryPause.
func (r *replayer) classify(err error, context string) (done bool) {
	var se *lapclient.ServerError
	if errors.As(err, &se) {
		if strings.Contains(se.Msg, lapcache.ErrOwnerUnreachable.Error()) {
			time.Sleep(ownerRetryPause)
			return false
		}
		if isInjected(err) {
			r.mu.Lock()
			r.injectedErrs++
			r.mu.Unlock()
			return true
		}
		r.noteUnexpected(fmt.Sprintf("server refused %s: %v", context, err))
		return true
	}
	if isInjected(err) {
		// Injected at the transport (client-side wrap or dial gate):
		// expected, but the connection is gone — retry on a fresh one.
		r.mu.Lock()
		r.injectedErrs++
		r.mu.Unlock()
		return false
	}
	if r.tolerate {
		r.mu.Lock()
		r.transportErrs++
		r.mu.Unlock()
		return false
	}
	r.noteUnexpected(fmt.Sprintf("transport error on %s (no wire faults planned): %v", context, err))
	return false
}

// issue performs one step on conn, verifying read data against
// the deterministic oracle.
func (r *replayer) issue(conn *lapclient.Conn, s workload.Step) error {
	span := blockdev.ByteRangeToSpan(s.File, s.Offset, s.Size, blockSize)
	switch s.Kind {
	case workload.OpRead:
		rh, data, err := conn.Do(lapclient.Req(wire.OpRead, wire.FlagWantData, span.File, span.Start, span.Count), nil, nil)
		if err != nil {
			return err
		}
		r.mu.Lock()
		r.reads++
		if rh.Flags&wire.FlagHit != 0 {
			r.hits++
		}
		r.mu.Unlock()
		if want := int(span.Count) * blockSize; len(data) != want {
			r.mu.Lock()
			r.mismatches++
			r.mu.Unlock()
			r.noteUnexpected(fmt.Sprintf("read f%d @%d+%d returned %d bytes, want %d",
				s.File, span.Start, span.Count, len(data), want))
		} else if at := oracleCheck(span.File, span.Start, data); at >= 0 {
			r.mu.Lock()
			r.mismatches++
			r.mu.Unlock()
			r.noteUnexpected(fmt.Sprintf("read f%d @%d+%d: byte %d differs from oracle",
				s.File, span.Start, span.Count, at))
		}
		return nil
	case workload.OpWrite:
		if _, _, err := conn.Do(lapclient.Req(wire.OpWrite, 0, span.File, span.Start, span.Count), nil, nil); err != nil {
			return err
		}
		r.mu.Lock()
		r.writes++
		r.mu.Unlock()
		return nil
	default: // workload.OpClose
		_, _, err := conn.Do(lapclient.Req(wire.OpClose, 0, s.File, 0, 0), nil, nil)
		return err
	}
}
