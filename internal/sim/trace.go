package sim

// TraceKind classifies one trace record.
type TraceKind int

// Trace record kinds.
const (
	// TraceEventFired marks the engine executing one scheduled event.
	TraceEventFired TraceKind = iota
	// TraceEnqueue marks a request joining a resource queue.
	TraceEnqueue
	// TraceStart marks a request entering service on a resource.
	TraceStart
	// TraceDone marks a request completing service.
	TraceDone
	// TraceDrop marks a request abandoned via its Cancelled hook while
	// still queued.
	TraceDrop
)

// String names the kind (the "kind" field of the JSONL trace output).
func (k TraceKind) String() string {
	switch k {
	case TraceEventFired:
		return "event"
	case TraceEnqueue:
		return "enqueue"
	case TraceStart:
		return "start"
	case TraceDone:
		return "done"
	case TraceDrop:
		return "drop"
	default:
		return "unknown"
	}
}

// MarshalText makes the kind's name its JSON form.
func (k TraceKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// TraceRecord is one observation emitted through a Tracer: either the
// engine firing an event (a span marker in virtual time) or a resource
// queue transition. All times are virtual, so a trace is bit-identical
// across runs and machines. The tags are the keys of its JSONL form
// (lapsim -trace-out).
type TraceRecord struct {
	// At is the virtual time of the observation.
	At Time `json:"at_ns"`
	// Kind classifies the record.
	Kind TraceKind `json:"kind"`
	// Resource names the resource ("disk3", "port0"); empty for
	// engine-level records.
	Resource string `json:"resource,omitempty"`
	// Priority is the request's class (resource records only).
	Priority Priority `json:"prio,omitempty"`
	// Wait is the time the request spent queued (TraceStart only).
	Wait Duration `json:"wait_ns,omitempty"`
	// Service is the request's service time (TraceStart, TraceDone).
	Service Duration `json:"service_ns,omitempty"`
	// QueueLen is the number of requests waiting after the transition
	// (resource records only).
	QueueLen int `json:"qlen,omitempty"`
	// Seq is the engine event sequence number (TraceEventFired only).
	Seq uint64 `json:"seq,omitempty"`
}

// Tracer receives trace records. Implementations must not schedule
// events or otherwise feed back into the simulation: tracing is
// observation only, so enabling it cannot change any simulated number.
type Tracer interface {
	Record(TraceRecord)
}

// SetTracer installs (or, with nil, removes) the engine's tracer.
// Resources attached to the engine report through it as well.
func (e *Engine) SetTracer(t Tracer) { e.tracer = t }
