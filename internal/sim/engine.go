package sim

import "fmt"

// Handler is the callback invoked when an event fires. It receives the
// engine so that it can schedule follow-up events.
type Handler func(e *Engine)

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
	// deepening the heap. Events live in both by value, and carry their
	// handler's slot in handlers rather than the handler itself, so an
	// event holds no pointer and moving one costs the collector
	// nothing. Scheduling an event allocates nothing.
	queue minHeap
	lane  fifo[event]
	// handlers holds each scheduled event's handler by slot; free lists
	// the slots no event holds.
	handlers []Handler
	free     []int32
	seq      uint64
	rng      *RNG
	fired    uint64
	running  bool
	tracer   Tracer
}

// NewEngine returns an engine whose clock starts at zero and whose
// random stream is derived from seed.
func NewEngine(seed uint64) *Engine {
	return &Engine{rng: NewRNG(seed)}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// RNG returns the engine's deterministic random-number generator.
func (e *Engine) RNG() *RNG { return e.rng }

// Fired returns the number of events executed so far, useful for
// progress accounting and runaway detection in tests.
func (e *Engine) Fired() uint64 { return e.fired }

// At schedules fn to run at absolute time t. Scheduling in the past is
// a programming error and panics, because it would silently corrupt
// causality.
func (e *Engine) At(t Time, fn Handler) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	if fn == nil {
		panic("sim: scheduling nil handler")
	}
	var slot int32
	if n := len(e.free); n > 0 {
		slot, e.free = e.free[n-1], e.free[:n-1]
		e.handlers[slot] = fn
	} else {
		slot = int32(len(e.handlers))
		e.handlers = append(e.handlers, fn)
	}
	ev := event{at: int64(t), seq: e.seq, slot: slot}
	e.seq++
	if e.lane.len() == 0 || e.lane.back().at <= ev.at {
		e.lane.push(ev)
	} else {
		e.queue.push(ev)
	}
}

// After schedules fn to run d after the current time. A negative delay
// panics.
func (e *Engine) After(d Duration, fn Handler) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	e.At(e.now.Add(d), fn)
}

// Run executes events in time order until the queue is empty and
// returns the final clock value.
func (e *Engine) Run() Time {
	return e.RunUntil(func() bool { return false })
}

// pending returns the number of events scheduled and not yet fired.
func (e *Engine) pending() int { return len(e.queue) + e.lane.len() }

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
		if e.lane.len() > 0 && (len(e.queue) == 0 || e.lane.front().before(&e.queue[0])) {
			ev = e.lane.pop()
		} else {
			ev = e.queue.pop()
		}
		fn := e.handlers[ev.slot]
		e.handlers[ev.slot] = nil // keep nothing the handler refers to alive
		e.free = append(e.free, ev.slot)
		e.now = Time(ev.at)
		e.fired++
		if e.tracer != nil {
			e.tracer.Record(TraceRecord{At: e.now, Kind: TraceEventFired, Seq: ev.seq})
		}
		fn(e)
	}
	return e.now
}
