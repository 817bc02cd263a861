package sim

import "testing"

// recordingTracer collects every record for inspection.
type recordingTracer struct {
	records []TraceRecord
}

func (t *recordingTracer) Record(r TraceRecord) { t.records = append(t.records, r) }

func (t *recordingTracer) count(k TraceKind) int {
	n := 0
	for _, r := range t.records {
		if r.Kind == k {
			n++
		}
	}
	return n
}

// driveContention queues three requests at once (one prefetch between
// two user-priority ones) plus a cancelled one, then drains.
func driveContention(e *Engine, r *Resource, cancelled *bool) (doneOrder []Priority) {
	e.At(0, func(e *Engine) {
		for _, p := range []Priority{PriorityUser, PriorityPrefetch, PriorityUser} {
			p := p
			r.Submit(Request{
				Service:  10 * Millisecond,
				Priority: p,
				Done:     func(*Engine, Time) { doneOrder = append(doneOrder, p) },
			})
		}
		r.Submit(Request{
			Service:   10 * Millisecond,
			Priority:  PriorityPrefetch,
			Cancelled: func() bool { return *cancelled },
			Done:      func(*Engine, Time) { doneOrder = append(doneOrder, PriorityPrefetch) },
		})
		*cancelled = true
	})
	e.Run()
	return doneOrder
}

func TestTracerObservesResourceLifecycle(t *testing.T) {
	e := NewEngine(1)
	tr := &recordingTracer{}
	e.SetTracer(tr)
	res := NewResource(e, "disk0")
	cancelled := false
	order := driveContention(e, res, &cancelled)

	if got, want := len(order), 3; got != want {
		t.Fatalf("completed %d requests, want %d", got, want)
	}
	if order[0] != PriorityUser || order[1] != PriorityUser || order[2] != PriorityPrefetch {
		t.Errorf("priority order violated: %v", order)
	}
	if n := tr.count(TraceEnqueue); n != 4 {
		t.Errorf("enqueue records: %d, want 4", n)
	}
	if n := tr.count(TraceStart); n != 3 {
		t.Errorf("start records: %d, want 3", n)
	}
	if n := tr.count(TraceDone); n != 3 {
		t.Errorf("done records: %d, want 3", n)
	}
	if n := tr.count(TraceDrop); n != 1 {
		t.Errorf("drop records: %d, want 1", n)
	}
	if n := tr.count(TraceEventFired); n == 0 {
		t.Error("no engine event records")
	}
	var last Time
	for _, r := range tr.records {
		if r.At < last {
			t.Fatalf("trace goes backwards: %v after %v", r.At, last)
		}
		last = r.At
	}
}

func TestResourceQueueAndClassAccounting(t *testing.T) {
	e := NewEngine(1)
	res := NewResource(e, "disk0")
	cancelled := false
	if order := driveContention(e, res, &cancelled); len(order) != 3 {
		t.Errorf("completed %d requests, want 3 (one cancelled)", len(order))
	}

	// Three requests arrive while the first is in service, so the queue
	// peaks at 3 waiting (two live, one soon-cancelled).
	if got := res.MaxQueueLen(); got != 3 {
		t.Errorf("max queue %d, want 3", got)
	}
	user := res.BusyTimeClass(PriorityUser)
	pf := res.BusyTimeClass(PriorityPrefetch)
	if user != 20*Millisecond {
		t.Errorf("user busy time %v, want 20ms", user)
	}
	if pf != 10*Millisecond {
		t.Errorf("prefetch busy time %v, want 10ms", pf)
	}
	if user+pf != res.BusyTime() {
		t.Errorf("class busy times %v+%v do not sum to total %v", user, pf, res.BusyTime())
	}
}

// Tracing must be observation only: the same scenario with and without
// a tracer produces identical accounting.
func TestTracerDoesNotPerturbSimulation(t *testing.T) {
	type outcome struct {
		end             Time
		busy, prefetch  Duration
		maxQueue, dones int
	}
	run := func(withTracer bool) outcome {
		e := NewEngine(7)
		if withTracer {
			e.SetTracer(&recordingTracer{})
		}
		res := NewResource(e, "disk0")
		cancelled := false
		order := driveContention(e, res, &cancelled)
		return outcome{e.Now(), res.BusyTime(), res.BusyTimeClass(PriorityPrefetch), res.MaxQueueLen(), len(order)}
	}
	if a, b := run(false), run(true); a != b {
		t.Errorf("tracer changed the run: %+v vs %+v", a, b)
	}
}
