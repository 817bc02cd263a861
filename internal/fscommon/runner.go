package fscommon

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/workload"
)

// Runner replays a trace against a file system: every process is a
// closed loop (think, issue, wait) so I/O speedups shorten the run.
type Runner struct {
	b      *Base
	trace  *workload.Trace
	engine *sim.Engine

	completedSteps int
	warmThreshold  int
	finishedProcs  int
}

// NewRunner prepares a replay against the file system b serves (see
// Serve). warmFraction is the share of total requests completed before
// the measurement window opens (the paper warms the cache with the
// first hours of each trace); 0 measures everything. It panics on a
// fraction outside [0,1).
func NewRunner(b *Base, tr *workload.Trace, warmFraction float64) *Runner {
	if warmFraction < 0 || warmFraction >= 1 {
		panic(fmt.Sprintf("fscommon: warm fraction %v outside [0,1)", warmFraction))
	}
	return &Runner{
		b:             b,
		trace:         tr,
		warmThreshold: int(warmFraction * float64(tr.TotalSteps())),
	}
}

// Run replays the whole trace to completion on the engine and returns
// the final simulated time, with the write-back daemon running
// throughout. The collector starts measuring once the warm threshold
// is crossed (immediately if 0).
func (r *Runner) Run(e *sim.Engine) sim.Time {
	r.b.StartWriteback()
	if r.warmThreshold == 0 {
		r.b.Coll.StartMeasurement()
	}
	r.engine = e
	for i := range r.trace.Procs {
		p := &process{runner: r, trace: &r.trace.Procs[i]}
		p.issue, p.complete = e.Bind(p.issueStep), p.completeStep
		p.schedule()
	}
	e.RunUntil(r.Done)
	// The trace is finished: end the write-back daemon and drain
	// whatever is still in flight — trailing demand fetches, prefetch
	// chains walking to end of file, queued flushes.
	r.b.StopBackground()
	return e.Run()
}

// Done reports whether every process completed its steps.
func (r *Runner) Done() bool { return r.finishedProcs == len(r.trace.Procs) }

// process is one trace process mid-replay: the step it is on and the
// handler and callback that step needs, bound once (a process has one
// step outstanding at a time).
type process struct {
	runner   *Runner
	trace    *workload.Process
	idx      int      // the step being thought about or served
	issued   sim.Time // when it was issued
	issue    sim.HandlerID
	complete func(at sim.Time)
}

// schedule starts the think time of the process's next step.
func (p *process) schedule() {
	r := p.runner
	if p.idx >= len(p.trace.Steps) {
		r.finishedProcs++
		return
	}
	r.engine.After(p.trace.Steps[p.idx].Think, p.issue)
}

func (p *process) issueStep(e *sim.Engine) {
	b, step := p.runner.b, p.trace.Steps[p.idx]
	p.issued = e.Now()
	switch step.Kind {
	case workload.OpRead:
		b.proto.Read(p.trace.Node, b.SpanOf(step), p.complete)
	case workload.OpWrite:
		b.proto.Write(p.trace.Node, b.SpanOf(step), p.complete)
	case workload.OpClose:
		b.proto.Close(p.trace.Node, step.File, p.complete)
	}
}

func (p *process) completeStep(at sim.Time) {
	r := p.runner
	latency := at.Sub(p.issued)
	coll := r.b.Coll
	switch p.trace.Steps[p.idx].Kind {
	case workload.OpRead:
		coll.ReadDone(latency)
	case workload.OpWrite:
		coll.WriteDone()
	}
	r.completedSteps++
	if r.completedSteps == r.warmThreshold {
		coll.StartMeasurement()
	}
	p.idx++
	p.schedule()
}
