//go:build !race

package sim

import "testing"

// TestEventPathAllocs gates the simulator's two inner loops at zero
// allocations on a warmed engine: scheduling and firing an event whose
// handler is already bound, and a resource request from Submit to its
// Done in a recycled record. The race detector instruments allocation,
// so the gate runs under plain `go test` only.
func TestEventPathAllocs(t *testing.T) {
	t.Run("scheduleFire", func(t *testing.T) {
		e := NewEngine(1)
		fired := 0
		tick := e.Bind(func(*Engine) { fired++ })
		burst := func() {
			for i := 0; i < 8; i++ {
				e.After(Duration(8-i), tick)
			}
			e.Run()
		}
		burst() // grow the heap to its high-water mark
		if allocs := testing.AllocsPerRun(1000, burst); allocs != 0 {
			t.Errorf("%v allocs per 8 events scheduled and fired, want 0", allocs)
		}
		if fired == 0 {
			t.Fatal("no event fired")
		}
	})
	t.Run("submitComplete", func(t *testing.T) {
		e := NewEngine(1)
		r := NewResource(e, "disk0")
		served, dropped := 0, 0
		done := e.Bind(func(*Engine) { served++ })
		stale := func() bool { dropped++; return true }
		burst := func() {
			// Three queue behind the first; one of them is dropped.
			r.Submit(Request{Service: 5, Priority: PriorityPrefetch, Done: done})
			r.Submit(Request{Service: 5, Priority: PriorityPrefetch, Done: done, Cancelled: stale})
			r.Submit(Request{Service: 5, Priority: PriorityUser, Done: done})
			r.Submit(Request{Service: 5, Priority: PriorityUser, Done: done})
			e.Run()
		}
		burst()
		if allocs := testing.AllocsPerRun(1000, burst); allocs != 0 {
			t.Errorf("%v allocs per 4 requests submitted and completed, want 0", allocs)
		}
		if served != 3*1002 || dropped != 1002 {
			t.Errorf("Done ran %d times, Cancelled dropped %d; want %d, %d", served, dropped, 3*1002, 1002)
		}
	})
}
