package sim

import (
	"testing"
	"testing/quick"
)

func TestResourceServesFCFS(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "disk0")
	var done []Time
	for i := 0; i < 3; i++ {
		r.Submit(Request{
			Service:  10 * Millisecond,
			Priority: PriorityUser,
			Done:     e.Bind(func(e *Engine) { done = append(done, e.Now()) }),
		})
	}
	e.Run()
	want := []Time{Time(10 * Millisecond), Time(20 * Millisecond), Time(30 * Millisecond)}
	for i := range want {
		if done[i] != want[i] {
			t.Errorf("request %d done at %v, want %v", i, done[i], want[i])
		}
	}
	if len(done) != 3 {
		t.Errorf("served %d, want 3", len(done))
	}
}

func TestResourcePriorityUserBeforePrefetch(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "disk")
	var order []string
	// Occupy the resource so the next two requests queue up.
	r.Submit(Request{Service: 5, Priority: PriorityUser})
	// Prefetch submitted first, user second: user must still win.
	r.Submit(Request{Service: 5, Priority: PriorityPrefetch,
		Done: e.Bind(func(*Engine) { order = append(order, "prefetch") })})
	r.Submit(Request{Service: 5, Priority: PriorityUser,
		Done: e.Bind(func(*Engine) { order = append(order, "user") })})
	e.Run()
	if len(order) != 2 || order[0] != "user" || order[1] != "prefetch" {
		t.Errorf("service order = %v, want [user prefetch]", order)
	}
}

func TestResourceNonPreemptive(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "disk")
	var prefetchDone, userDone Time
	r.Submit(Request{Service: 100, Priority: PriorityPrefetch,
		Done: e.Bind(func(e *Engine) { prefetchDone = e.Now() })})
	// User request arrives mid-service; must wait for completion.
	e.After(10, e.Bind(func(*Engine) {
		r.Submit(Request{Service: 50, Priority: PriorityUser,
			Done: e.Bind(func(e *Engine) { userDone = e.Now() })})
	}))
	e.Run()
	if prefetchDone != 100 {
		t.Errorf("prefetch done at %v, want 100", prefetchDone)
	}
	if userDone != 150 {
		t.Errorf("user done at %v, want 150 (non-preemptive)", userDone)
	}
}

func TestResourceCancelledRequestDropped(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "disk")
	tr := &recordingTracer{}
	e.SetTracer(tr)
	stale := true
	var fired bool
	r.Submit(Request{Service: 10, Priority: PriorityUser})
	r.Submit(Request{
		Service:   10,
		Priority:  PriorityPrefetch,
		Cancelled: func() bool { return stale },
		Done:      e.Bind(func(*Engine) { fired = true }),
	})
	e.Run()
	if fired {
		t.Error("cancelled request was served")
	}
	if n := tr.count(TraceDrop); n != 1 {
		t.Errorf("drop records = %d, want 1", n)
	}
	if e.Now() != 10 {
		t.Errorf("clock = %v, want 10 (no service time for dropped request)", e.Now())
	}
}

func TestResourceAccounting(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "disk")
	tr := &recordingTracer{}
	e.SetTracer(tr)
	r.Submit(Request{Service: 10, Priority: PriorityUser})
	r.Submit(Request{Service: 30, Priority: PriorityPrefetch})
	e.Run()
	if r.BusyTime() != 40 {
		t.Errorf("busy time %v, want 40", r.BusyTime())
	}
	if r.BusyTimeClass(PriorityUser) != 10 || r.BusyTimeClass(PriorityPrefetch) != 30 {
		t.Error("per-class busy times wrong")
	}
	// Second request waited 10 while the first was in service.
	var waits []Duration
	for _, rec := range tr.records {
		if rec.Kind == TraceStart {
			waits = append(waits, rec.Wait)
		}
	}
	if len(waits) != 2 || waits[0] != 0 || waits[1] != 10 {
		t.Errorf("waits %v, want [0 10]", waits)
	}
	if u := r.Utilization(); u != 1.0 {
		t.Errorf("utilization %v, want 1.0", u)
	}
}

func TestResourceNegativeServicePanics(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "disk")
	defer func() {
		if recover() == nil {
			t.Error("negative service did not panic")
		}
	}()
	r.Submit(Request{Service: -1})
}

// Property: total busy time equals the sum of service times of all
// non-cancelled requests, and the resource never reports Busy once the
// engine drains.
func TestResourceConservationProperty(t *testing.T) {
	f := func(services []uint8, prefetchMask uint64) bool {
		e := NewEngine(5)
		r := NewResource(e, "d")
		var total Duration
		served := 0
		for i, s := range services {
			svc := Duration(s)
			total += svc
			p := PriorityUser
			if prefetchMask&(1<<(uint(i)%64)) != 0 {
				p = PriorityPrefetch
			}
			r.Submit(Request{Service: svc, Priority: p, Done: e.Bind(func(*Engine) { served++ })})
		}
		e.Run()
		return r.BusyTime() == total && r.cur < 0 && r.QueueLen() == 0 &&
			served == len(services)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
