package sim

import "fmt"

// Priority orders requests contending for a Resource. Lower numeric
// values are served first. The paper gives prefetch I/O strictly lower
// priority than user I/O ("Prefetching a block will never be done if
// other operations are waiting to be done on the same disk").
type Priority int

// The two priority levels used by the file systems.
const (
	PriorityUser     Priority = 0 // user-requested reads and writes
	PriorityPrefetch Priority = 1 // speculative prefetch reads
)

// Request is one unit of work queued on a Resource.
type Request struct {
	// Service is how long the resource is busy processing the request.
	Service Duration
	// Priority selects the queue class; within a class requests are
	// FCFS by enqueue time.
	Priority Priority
	// Done is invoked when service completes, with the completion time.
	Done func(e *Engine, at Time)
	// Cancelled, if it returns true at dispatch time, causes the
	// request to be dropped without service. Aggressive prefetchers use
	// this to abandon stale prefetches still sitting in disk queues. It
	// is polled once, when the request reaches the head of the queue.
	Cancelled func() bool

	enqueued Time
}

// Resource models a device that serves one request at a time:
// a disk arm, a network port, a server CPU. Service is non-preemptive:
// a low-priority request already in service runs to completion even if
// a high-priority request arrives.
type Resource struct {
	name   string
	engine *Engine
	// queue holds the waiting requests, one FIFO per Priority: strict
	// priority between the classes, FCFS inside each.
	queue [2]fifo[*Request]
	// cur is the request in service, nil when idle; complete, bound
	// once, is the event that ends it.
	cur      *Request
	complete Handler
	// free holds the records of finished requests for Submit to reuse.
	free []*Request

	// What a Result and the tracer read: time, not counts (a file
	// system's stats.Collector counts the operations it completes).
	busyTime   Duration
	busyClass  [2]Duration // indexed by Priority
	maxWaiting int         // waiting-queue high-water mark
}

// NewResource creates an idle resource attached to the engine.
func NewResource(e *Engine, name string) *Resource {
	r := &Resource{name: name, engine: e}
	r.complete = r.finish
	return r
}

// QueueLen returns the number of requests waiting (not in service).
func (r *Resource) QueueLen() int { return r.queue[0].len() + r.queue[1].len() }

// BusyTime returns the cumulative time the resource spent serving.
func (r *Resource) BusyTime() Duration { return r.busyTime }

// BusyTimeClass returns the cumulative service time spent on requests
// of class p — the split that shows how much of a disk's load is
// speculative prefetch traffic versus demand traffic.
func (r *Resource) BusyTimeClass(p Priority) Duration { return r.busyClass[p] }

// MaxQueueLen returns the waiting-queue high-water mark.
func (r *Resource) MaxQueueLen() int { return r.maxWaiting }

// Utilization returns busy time as a fraction of the elapsed clock.
func (r *Resource) Utilization() float64 {
	now := r.engine.Now()
	if now == 0 {
		return 0
	}
	return r.busyTime.Seconds() / now.Seconds()
}

// Submit enqueues req for service. The request's Done callback fires
// at completion; submission order is remembered for FCFS within a
// priority class. The resource keeps its own copy of req in a record
// it reuses once the request has completed or been dropped.
func (r *Resource) Submit(req Request) {
	if req.Service < 0 {
		panic("sim: negative service time")
	}
	if uint(req.Priority) > 1 {
		panic(fmt.Sprintf("sim: request priority %d outside {0, 1}", req.Priority))
	}
	now := r.engine.Now()
	req.enqueued = now
	var rec *Request
	if n := len(r.free); n > 0 {
		rec, r.free = r.free[n-1], r.free[:n-1]
	} else {
		rec = new(Request)
	}
	*rec = req
	r.queue[req.Priority].push(rec)
	if n := r.QueueLen(); n > r.maxWaiting {
		r.maxWaiting = n
	}
	if t := r.engine.tracer; t != nil {
		t.Record(TraceRecord{At: now, Kind: TraceEnqueue, Resource: r.name,
			Priority: req.Priority, Service: req.Service, QueueLen: r.QueueLen()})
	}
	r.dispatch()
}

// dispatch starts the next request if the resource is idle.
func (r *Resource) dispatch() {
	if r.cur != nil {
		return
	}
	for {
		q := &r.queue[PriorityUser]
		if q.len() == 0 {
			q = &r.queue[PriorityPrefetch]
			if q.len() == 0 {
				return
			}
		}
		now := r.engine.Now()
		req := q.pop()
		if req.Cancelled != nil && req.Cancelled() {
			if t := r.engine.tracer; t != nil {
				t.Record(TraceRecord{At: now, Kind: TraceDrop, Resource: r.name,
					Priority: req.Priority, QueueLen: r.QueueLen()})
			}
			r.recycle(req)
			continue
		}
		r.cur = req
		r.busyTime += req.Service
		r.busyClass[req.Priority] += req.Service
		if t := r.engine.tracer; t != nil {
			t.Record(TraceRecord{At: now, Kind: TraceStart, Resource: r.name,
				Priority: req.Priority, Wait: now.Sub(req.enqueued), Service: req.Service,
				QueueLen: r.QueueLen()})
		}
		r.engine.At(now.Add(req.Service), r.complete)
		return
	}
}

// finish is the completion event of the request in service. The
// resource is idle again before Done runs, so a Done that submits to
// this resource competes with the queue like any other arrival.
func (r *Resource) finish(e *Engine) {
	req := r.cur
	r.cur = nil
	if t := e.tracer; t != nil {
		t.Record(TraceRecord{At: e.Now(), Kind: TraceDone, Resource: r.name,
			Priority: req.Priority, Service: req.Service, QueueLen: r.QueueLen()})
	}
	done := req.Done
	r.recycle(req)
	if done != nil {
		done(e, e.Now())
	}
	r.dispatch()
}

// recycle clears the record's callbacks, so that it keeps nothing
// alive, and makes it available to the next Submit.
func (r *Resource) recycle(req *Request) {
	*req = Request{}
	r.free = append(r.free, req)
}
