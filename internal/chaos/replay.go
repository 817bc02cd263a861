package chaos

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/lapcache"
	"repro/internal/lapclient"
	"repro/internal/wire"
	"repro/internal/workload"
)

// maxUnexpected bounds the recorded unexpected-error details; the
// counter keeps counting past it.
const maxUnexpected = 16

// The replay's one retry rule (nodeClient.Reissue): a step sends at
// most stepSends times, and before each resend waits at most linkWait,
// polling every linkPoll, for its front node's link to the file's
// owner. linkWait outlasts the longest the health loop waits between
// two dials of a down peer (BackoffMax plus its 25 % jitter: 250 ms),
// so a link whose next dial succeeds is waited for; one whose dials
// keep failing is not.
const (
	stepSends = 3
	linkWait  = 300 * time.Millisecond
	linkPoll  = 2 * time.Millisecond
)

// nodeClient is the replay's lapclient.Source for one node: the one
// client connection all the processes sharded to the node share,
// redialed — within a budget — whenever a fault kills it.
type nodeClient struct {
	addr   string
	node   *cluster.Node
	budget int

	mu      sync.Mutex
	conn    *lapclient.Conn
	redials int
	closed  bool
}

// Conn returns a live connection. When the current one is dead it
// dials until a handshake succeeds (the plan's faults on accepted
// connections tear some), so a step finds no connection only once the
// redial budget is spent.
func (nc *nodeClient) Conn() (*lapclient.Conn, error) {
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
	for nc.redials < nc.budget {
		nc.redials++
		if c, err := lapclient.DialConn(nc.addr, 0); err == nil {
			nc.conn = c
			return c, nil
		}
	}
	return nil, fmt.Errorf("chaos: redial budget (%d) spent for %s", nc.budget, nc.addr)
}

// Reissue is the replay's one retry rule. A step the node refused
// because the file's owner was unreachable is sent again, up to
// stepSends sends in all, once the node reports its link to the owner
// up — waiting at most linkWait for that. Every other outcome is the
// step's last.
func (nc *nodeClient) Reissue(r lapclient.Record, attempt int) bool {
	if attempt >= stepSends || !ownerUnreachable(r.Err) {
		return false
	}
	owner, _ := nc.node.OwnerOf(r.Span.File)
	for deadline := time.Now().Add(linkWait); nc.node.PeerDown(owner); time.Sleep(linkPoll) {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
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

// audit is the replay's lapclient.Observer: it classifies every
// step's outcome and checks every read's data against the oracle.
type audit struct {
	mu            sync.Mutex
	reads         int
	hits          int
	writes        int
	mismatches    int
	injectedErrs  int
	transportErrs int
	outcomes      Outcomes
	unexpectedN   int
	unexpected    []string
}

// isInjected reports whether err is one the plan manufactured. The
// marker string is the contract: injected errors cross the wire as
// ServerError messages, where error identity cannot survive.
func isInjected(err error) bool {
	return err != nil && strings.Contains(err.Error(), "faultinject:")
}

// ownerUnreachable reports whether err carries the sentinel's text.
func ownerUnreachable(err error) bool {
	return strings.Contains(err.Error(), lapcache.ErrOwnerUnreachable.Error())
}

func (a *audit) noteUnexpected(detail string) {
	a.unexpectedN++
	if len(a.unexpected) < maxUnexpected {
		a.unexpected = append(a.unexpected, detail)
	}
}

// ReadFlags asks for every read's bytes, for the oracle.
func (*audit) ReadFlags() wire.Flags { return wire.FlagWantData }

// Observe counts r under its outcome and classifies it:
//
//   - ok: a read's bytes are verified against the oracle.
//   - refused: an injected error (the marker) is expected — the system
//     surfaced the fault as a typed failure instead of wedging or
//     lying — and so is the owner unreachable (the sentinel's text)
//     while peer links fail; any other refusal of a well-formed
//     request is unexpected.
//   - indeterminate or no connection: expected, since faultPlan tears
//     connections and fails dials on every kind of link.
func (a *audit) Observe(r lapclient.Record) {
	a.mu.Lock()
	defer a.mu.Unlock()
	switch r.Outcome {
	case lapclient.OutcomeOK:
		a.outcomes.OK++
		a.check(r)
		return
	case lapclient.OutcomeRefused:
		a.outcomes.Refused++
	case lapclient.OutcomeIndeterminate:
		a.outcomes.Indeterminate++
	default:
		a.outcomes.NoConn++
	}
	switch {
	case isInjected(r.Err):
		a.injectedErrs++
	case r.Outcome != lapclient.OutcomeRefused:
		a.transportErrs++
	case !ownerUnreachable(r.Err):
		s := r.Step
		a.noteUnexpected(fmt.Sprintf("server refused %s f%d @%d+%d of proc %d: %v", s.Kind, s.File, s.Offset, s.Size, r.Proc, r.Err))
	}
}

// check counts one successful step; a read's bytes must be the
// deterministic oracle's. The caller holds a.mu.
func (a *audit) check(r lapclient.Record) {
	span := r.Span
	switch r.Step.Kind {
	case workload.OpRead:
		a.reads++
		if r.Hit {
			a.hits++
		}
		if want := int(span.Count) * blockSize; len(r.Data) != want {
			a.mismatches++
			a.noteUnexpected(fmt.Sprintf("read f%d @%d+%d returned %d bytes, want %d",
				span.File, span.Start, span.Count, len(r.Data), want))
		} else if at := oracleCheck(span.File, span.Start, r.Data); at >= 0 {
			a.mismatches++
			a.noteUnexpected(fmt.Sprintf("read f%d @%d+%d: byte %d differs from oracle",
				span.File, span.Start, span.Count, at))
		}
	case workload.OpWrite:
		a.writes++
	}
}
