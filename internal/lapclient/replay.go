package lapclient

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/blockdev"
	"repro/internal/wire"
	"repro/internal/workload"
)

// ReplayOptions tunes a trace replay.
type ReplayOptions struct {
	// ThinkScale multiplies trace think times (0 disables thinking
	// entirely — the usual choice, since the trace's virtual think
	// times are far longer than a live server's service times).
	ThinkScale float64
}

// Outcome is what became of one replayed step; each step has exactly
// one.
type Outcome uint8

const (
	// OutcomeOK: the server answered the step.
	OutcomeOK Outcome = iota
	// OutcomeRefused: an error frame came back. The outcome is
	// definite: the server did not carry the step out.
	OutcomeRefused
	// OutcomeIndeterminate: a transport error after the send. The
	// step may or may not have taken effect.
	OutcomeIndeterminate
	// OutcomeNoConn: the node's Source had no connection to send the
	// step on.
	OutcomeNoConn
)

// Record is one replayed step as its Observer sees it.
type Record struct {
	Proc  int // the traced process
	Index int // the step's place in the process's closed loop
	Step  workload.Step
	Span  blockdev.Span // the step's blocks; a close names only the file
	// Invoke is when the step's first send began, Done when its
	// outcome was known, after every send its Source asked for.
	Invoke, Done time.Time
	Outcome      Outcome
	Hit          bool   // an OutcomeOK read every block of which was cached
	Data         []byte // an OutcomeOK read's bytes, if it asked for them
	Err          error  // the refusal, transport or dial error; nil when OK
}

// A Source is a node's connection, shared by the processes the replay
// shards to that node.
type Source interface {
	// Conn returns the connection to send a step on, or the error that
	// leaves the step none.
	Conn() (*Conn, error)
	// Reissue is asked after the node refused the attempt-th send of
	// r's step (attempts count from 1), and reports whether to send it
	// again; it may wait before it answers.
	Reissue(r Record, attempt int) bool
}

// An Observer is handed every replayed step's Record exactly once, on
// the step's process goroutine, when the step's outcome is known.
type Observer interface {
	// ReadFlags are the flags every replayed read carries:
	// wire.FlagWantData puts a read's bytes in its Record's Data.
	ReadFlags() wire.Flags
	Observe(r Record)
}

// Replay drives live servers with a workload trace: one goroutine per
// traced process, each running its closed loop (think, request, wait)
// in order. Processes are sharded round-robin over nodes, the way a
// real workload's clients would each mount whichever cache node is
// nearest. A step's byte range becomes a span of blockSize blocks, and
// obs sees every step once, with its one outcome; a failed step does
// not stop its process. Replay returns when every process has run its
// last step.
func Replay(tr *workload.Trace, nodes []Source, blockSize int64, opts ReplayOptions, obs Observer) {
	var wg sync.WaitGroup
	for pi := range tr.Procs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			src := nodes[pi%len(nodes)]
			for i, s := range tr.Procs[pi].Steps {
				if opts.ThinkScale > 0 && s.Think > 0 {
					time.Sleep(time.Duration(float64(s.Think) * opts.ThinkScale))
				}
				r := Record{Proc: pi, Index: i, Step: s, Span: blockdev.Span{File: s.File}}
				if s.Kind != workload.OpClose {
					r.Span = blockdev.ByteRangeToSpan(s.File, s.Offset, s.Size, blockSize)
				}
				issue(src, &r, obs.ReadFlags())
				obs.Observe(r)
			}
		}()
	}
	wg.Wait()
}

// issue sends r's step from src until the step has an outcome that src
// does not ask to send again, and records it in r.
func issue(src Source, r *Record, readFlags wire.Flags) {
	h := Req(wire.OpClose, 0, r.Span.File, 0, 0)
	switch r.Step.Kind {
	case workload.OpRead:
		h = Req(wire.OpRead, readFlags, r.Span.File, r.Span.Start, r.Span.Count)
	case workload.OpWrite:
		h = Req(wire.OpWrite, 0, r.Span.File, r.Span.Start, r.Span.Count)
	}
	r.Invoke = time.Now()
	for attempt := 1; ; attempt++ {
		c, err := src.Conn()
		if err != nil {
			r.Outcome, r.Err = OutcomeNoConn, err
			break
		}
		rh, data, err := c.Do(h, nil, nil)
		var se *ServerError
		if err == nil {
			r.Outcome, r.Err, r.Hit, r.Data = OutcomeOK, nil, rh.Flags&wire.FlagHit != 0, data
		} else if errors.As(err, &se) {
			r.Outcome, r.Err = OutcomeRefused, err
			if src.Reissue(*r, attempt) {
				continue
			}
		} else {
			r.Outcome, r.Err = OutcomeIndeterminate, err
		}
		break
	}
	r.Done = time.Now()
}

// ReplayResult summarizes a trace replay from the client's side.
type ReplayResult struct {
	Procs    int
	Requests int
	Reads    int
	ReadHits int
	Writes   int
	Closes   int
	Elapsed  time.Duration
}

// HitRatio returns the fraction of reads fully served from cache.
func (r ReplayResult) HitRatio() float64 {
	if r.Reads == 0 {
		return 0
	}
	return float64(r.ReadHits) / float64(r.Reads)
}

// ReplayTrace replays tr over one pipelined Conn per node address,
// reads without their data, and tallies the steps that succeeded; it
// returns the first step's error, if any failed. A traced process has
// at most one request in flight, so a connection's window is its
// node's share of processes, and no process ever waits for a slot.
// Every node must report the same block size.
func ReplayTrace(addrs []string, tr *workload.Trace, opts ReplayOptions) (ReplayResult, error) {
	if len(addrs) == 0 {
		return ReplayResult{}, fmt.Errorf("lapclient: replay needs at least one address")
	}
	window := (len(tr.Procs) + len(addrs) - 1) / len(addrs)
	conns := make([]*Conn, 0, len(addrs))
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	for _, addr := range addrs {
		c, err := DialConn(addr, window)
		if err != nil {
			return ReplayResult{}, fmt.Errorf("lapclient: node %s: %w", addr, err)
		}
		conns = append(conns, c)
		if bs := c.Info().BlockSize; bs <= 0 || bs != conns[0].Info().BlockSize {
			return ReplayResult{}, fmt.Errorf("lapclient: node %s reports block size %d (first node: %d)",
				addr, bs, conns[0].Info().BlockSize)
		}
	}
	nodes := make([]Source, len(conns))
	for i, c := range conns {
		nodes[i] = fixedConn{c}
	}
	t := &tally{res: ReplayResult{Procs: len(tr.Procs)}}
	start := time.Now()
	Replay(tr, nodes, int64(conns[0].Info().BlockSize), opts, t)
	t.res.Elapsed = time.Since(start)
	return t.res, t.err
}

// fixedConn is ReplayTrace's Source: one connection, never redialed,
// and a refusal is final.
type fixedConn struct{ c *Conn }

func (f fixedConn) Conn() (*Conn, error) {
	if f.c.Dead() {
		return nil, f.c.readErr // set before the connection died, and for good
	}
	return f.c, nil
}

func (fixedConn) Reissue(Record, int) bool { return false }

// tally is ReplayTrace's Observer: it counts the steps that succeeded
// and keeps the first error.
type tally struct {
	mu  sync.Mutex
	res ReplayResult
	err error
}

func (*tally) ReadFlags() wire.Flags { return 0 }

func (t *tally) Observe(r Record) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.res.Requests++
	if r.Outcome != OutcomeOK {
		if t.err == nil {
			t.err = r.Err
		}
		return
	}
	switch r.Step.Kind {
	case workload.OpRead:
		t.res.Reads++
		if r.Hit {
			t.res.ReadHits++
		}
	case workload.OpWrite:
		t.res.Writes++
	default:
		t.res.Closes++
	}
}
