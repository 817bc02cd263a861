package sim

import "fmt"

// Handler is the callback invoked when an event fires. It receives the
// engine so that it can schedule follow-up events.
type Handler func(e *Engine)

// Engine is a discrete-event simulation core. The zero value is not
// usable; construct one with NewEngine.
type Engine struct {
	now Time
	// queue orders the scheduled events by (time, sequence): events
	// scheduled for the same instant fire in the order they were
	// scheduled, which keeps the simulation deterministic. Events live
	// in the heap by value, and carry their handler's slot in handlers
	// rather than the handler itself, so a heap item holds no pointer
	// and sifting one past another costs the collector nothing.
	// Scheduling an event allocates nothing.
	queue minHeap[int32]
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
	e.queue.push(int64(t), e.seq, slot)
	e.seq++
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

// RunLimit executes at most maxEvents events, returning true if the
// queue drained before the limit was reached. It guards tests against
// accidental infinite event loops.
func (e *Engine) RunLimit(maxEvents uint64) bool {
	start := e.fired
	e.RunUntil(func() bool { return e.fired-start >= maxEvents })
	return len(e.queue) == 0
}

// RunUntil executes events in time order until the queue drains or
// stop returns true (checked before each event). It returns the clock.
func (e *Engine) RunUntil(stop func() bool) Time {
	if e.running {
		panic("sim: Run called reentrantly from an event handler")
	}
	e.running = true
	defer func() { e.running = false }()
	for len(e.queue) > 0 {
		if stop() {
			break
		}
		ev := e.queue.pop()
		fn := e.handlers[ev.val]
		e.handlers[ev.val] = nil // keep nothing the handler refers to alive
		e.free = append(e.free, ev.val)
		e.now = Time(ev.rank)
		e.fired++
		if e.tracer != nil {
			e.tracer.Record(TraceRecord{At: e.now, Kind: TraceEventFired, Seq: ev.seq})
		}
		fn(e)
	}
	return e.now
}
