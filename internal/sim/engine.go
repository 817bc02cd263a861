package sim

import "fmt"

// Handler is the callback invoked when an event fires. It receives the
// engine so that it can schedule follow-up events; the event's time is
// e.Now().
type Handler func(e *Engine)

// HandlerID names a handler bound to an engine with Bind. Events carry
// the ID, and so do a resource's requests and the file systems'
// records, so that scheduling or firing one writes no pointer. The zero
// HandlerID names no handler.
type HandlerID int32

// Engine is a discrete-event simulation core. The zero value is not
// usable; construct one with NewEngine.
type Engine struct {
	now Time
	// Events fire in (time, sequence) order: events scheduled for the
	// same instant fire in the order they were scheduled, which keeps
	// the simulation deterministic. They wait in two queues. An event
	// due no earlier than the lane's last one is appended to the lane,
	// which is therefore sorted by construction; any other is pushed on
	// the heap, queue. A run of events scheduled in time order (the
	// write-back daemon's smear of a period's flushes: thousands of
	// events, 30 simulated seconds deep) lands in the lane rather than
	// deepening the heap. Events live in both by value and carry their
	// handler's ID, so an event holds no pointer and moving one costs
	// the collector nothing. Scheduling an event allocates nothing.
	queue minHeap
	lane  fifo[event]
	// handlers is the table Bind appends to: HandlerID h is
	// handlers[h], and handlers[0] is nil, so the zero ID binds nothing.
	handlers []Handler
	seq      uint64
	rng      *RNG
	fired    uint64
	running  bool
	tracer   Tracer
}

// NewEngine returns an engine whose clock starts at zero and whose
// random stream is derived from seed.
func NewEngine(seed uint64) *Engine {
	return &Engine{rng: NewRNG(seed), handlers: make([]Handler, 1)}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// RNG returns the engine's deterministic random-number generator.
func (e *Engine) RNG() *RNG { return e.rng }

// Fired returns the number of events executed so far, useful for
// progress accounting and runaway detection in tests.
func (e *Engine) Fired() uint64 { return e.fired }

// Bind adds fn to the engine's handler table and returns its ID, which
// can be scheduled any number of times. The table only grows, so a
// handler is bound once, when the record it serves is first made, and
// not once per event. Binding nil panics.
func (e *Engine) Bind(fn Handler) HandlerID {
	if fn == nil {
		panic("sim: binding nil handler")
	}
	e.handlers = append(e.handlers, fn)
	return HandlerID(len(e.handlers) - 1)
}

// check panics unless h names a bound handler.
func (e *Engine) check(h HandlerID) {
	if h <= 0 || int(h) >= len(e.handlers) {
		panic(fmt.Sprintf("sim: handler %d is not bound", h))
	}
}

// Fire runs handler h now, outside the queue: it is not an event, so
// Fired and the tracer do not see it. A completion that can be
// delivered at once (a block already where it is wanted) goes through
// Fire rather than through a zero-delay event.
func (e *Engine) Fire(h HandlerID) {
	e.check(h)
	e.handlers[h](e)
}

// At schedules handler h to run at absolute time t. Scheduling in the
// past is a programming error and panics, because it would silently
// corrupt causality; so does scheduling an ID Bind did not return.
func (e *Engine) At(t Time, h HandlerID) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	e.check(h)
	ev := event{at: int64(t), seq: e.seq, h: h}
	e.seq++
	if e.lane.len() == 0 || e.lane.back().at <= ev.at {
		e.lane.push(ev)
	} else {
		e.queue.push(ev)
	}
}

// After schedules handler h to run d after the current time. A
// negative delay panics.
func (e *Engine) After(d Duration, h HandlerID) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	e.At(e.now.Add(d), h)
}

// Run executes events in time order until the queue is empty and
// returns the final clock value.
func (e *Engine) Run() Time {
	return e.RunUntil(func() bool { return false })
}

// pending returns the number of events scheduled and not yet fired.
func (e *Engine) pending() int { return e.queue.n + e.lane.len() }

// RunUntil executes events in time order until the queue drains or
// stop returns true (checked before each event). It returns the clock.
func (e *Engine) RunUntil(stop func() bool) Time {
	if e.running {
		panic("sim: Run called reentrantly from an event handler")
	}
	e.running = true
	defer func() { e.running = false }()
	for e.pending() > 0 {
		if stop() {
			break
		}
		var ev event
		if e.lane.len() > 0 && (e.queue.n == 0 || e.lane.front().before(&e.queue.q[0])) {
			ev = e.lane.pop()
		} else {
			ev = e.queue.pop()
		}
		e.now = Time(ev.at)
		e.fired++
		if e.tracer != nil {
			e.tracer.Record(TraceRecord{At: e.now, Kind: TraceEventFired, Seq: ev.seq})
		}
		e.handlers[ev.h](e)
	}
	return e.now
}
