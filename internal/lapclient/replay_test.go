package lapclient

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/wire"
	"repro/internal/workload"
)

// redialer is a Source that dials a fresh connection whenever the last
// one died, and sends a refused step twice in all.
type redialer struct {
	t    *testing.T
	addr string

	mu    sync.Mutex
	c     *Conn
	dials int
}

func (d *redialer) Conn() (*Conn, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.c == nil || d.c.Dead() {
		c, err := DialConn(d.addr, 0)
		if err != nil {
			return nil, err
		}
		d.t.Cleanup(func() { c.Close() })
		d.c, d.dials = c, d.dials+1
	}
	return d.c, nil
}

func (d *redialer) Reissue(_ Record, attempt int) bool { return attempt < 2 }

// recorder is an Observer that keeps every record.
type recorder struct {
	mu   sync.Mutex
	recs map[[2]int][]Record
}

func (*recorder) ReadFlags() wire.Flags { return 0 }

func (o *recorder) Observe(r Record) {
	o.mu.Lock()
	defer o.mu.Unlock()
	k := [2]int{r.Proc, r.Index}
	o.recs[k] = append(o.recs[k], r)
}

// TestReplayRecordsEveryStepOnce: against a server that refuses one
// step with an error frame and severs the connection on another, the
// observer sees every step of the trace exactly once — the refused one
// as refused after the source's one reissue, the severed one as
// indeterminate, every other one ok — and both processes run on past
// the failure, the severed one through its source's redial.
func TestReplayRecordsEveryStepOnce(t *testing.T) {
	const bs = 128
	var refusedSends atomic.Int32
	addr := scriptedServer(t, func(h wire.Header) reply {
		switch {
		case h.Op == wire.OpWrite && h.File == 7:
			refusedSends.Add(1)
			return reply{refuse: "scripted refusal"}
		case h.Op == wire.OpRead && h.File == 9:
			return reply{sever: true}
		}
		return reply{}
	})
	read := func(f blockdev.FileID, off int64) workload.Step {
		return workload.Step{Kind: workload.OpRead, File: f, Offset: off, Size: bs}
	}
	tr := &workload.Trace{Procs: []workload.Process{
		{Steps: []workload.Step{read(1, 0), read(9, 0), {Kind: workload.OpWrite, File: 1, Size: 2 * bs}, {Kind: workload.OpClose, File: 1}}},
		{Steps: []workload.Step{read(2, 0), {Kind: workload.OpWrite, File: 7, Offset: bs, Size: bs}, read(2, bs), {Kind: workload.OpClose, File: 2}}},
	}}
	nodes := []*redialer{{t: t, addr: addr}, {t: t, addr: addr}}
	obs := &recorder{recs: make(map[[2]int][]Record)}
	Replay(tr, []Source{nodes[0], nodes[1]}, bs, ReplayOptions{}, obs)

	if len(obs.recs) != tr.TotalSteps() {
		t.Errorf("%d steps recorded, trace has %d", len(obs.recs), tr.TotalSteps())
	}
	for pi, p := range tr.Procs {
		for i, s := range p.Steps {
			recs := obs.recs[[2]int{pi, i}]
			if len(recs) != 1 {
				t.Errorf("proc %d step %d recorded %d times, want once", pi, i, len(recs))
				continue
			}
			r := recs[0]
			want := OutcomeOK
			switch [2]int{pi, i} {
			case [2]int{0, 1}:
				want = OutcomeIndeterminate
			case [2]int{1, 1}:
				want = OutcomeRefused
				var se *ServerError
				if !errors.As(r.Err, &se) || se.Msg != "scripted refusal" {
					t.Errorf("refused step's error %v, want the server's refusal", r.Err)
				}
			}
			if r.Outcome != want || (want == OutcomeOK) != (r.Err == nil) {
				t.Errorf("proc %d step %d (%s f%d): outcome %d err %v, want outcome %d", pi, i, s.Kind, s.File, r.Outcome, r.Err, want)
			}
			if r.Step != s || r.Invoke.IsZero() || r.Done.Before(r.Invoke) {
				t.Errorf("proc %d step %d: record %+v", pi, i, r)
			}
		}
	}
	if w := obs.recs[[2]int{0, 2}]; len(w) == 1 && w[0].Span != (blockdev.Span{File: 1, Start: 0, Count: 2}) {
		t.Errorf("write of 2 blocks mapped to span %v", w[0].Span)
	}
	if n := refusedSends.Load(); n != 2 {
		t.Errorf("refused step sent %d times, want 2 (the source reissues once)", n)
	}
	if nodes[0].dials != 2 || nodes[1].dials != 1 {
		t.Errorf("dials %d and %d, want 2 (a redial after the sever) and 1", nodes[0].dials, nodes[1].dials)
	}
}
