package sim

import (
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

// TestEventHoldsNoPointer keeps the engine's events pointer-free, in
// the heap and in the lane, and so a resource's queued requests: a sift
// moves events up and down the heap on every event, and an event
// holding a pointer would make each move a write the collector has to
// see. The handler stays in Engine.handlers and the event carries its
// ID; the request stays in Resource.recs and the queue carries its
// index.
func TestEventHoldsNoPointer(t *testing.T) {
	var (
		e Engine
		r Resource
	)
	for name, q := range map[string]any{
		"engine's heap": e.queue.q, "engine's lane": e.lane.ring,
		"resource's queue": r.queue[PriorityUser].ring, "resource's free list": r.free.ring,
	} {
		if ev := reflect.TypeOf(q).Elem(); holdsPointer(ev) {
			t.Errorf("the %s element %v holds a pointer", name, ev)
		}
	}
}

// holdsPointer reports whether a value of type t is or contains a
// pointer the collector traces.
func holdsPointer(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if holdsPointer(t.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Array:
		return t.Len() > 0 && holdsPointer(t.Elem())
	case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Slice,
		reflect.Chan, reflect.Func, reflect.Interface, reflect.String:
		return true
	}
	return false
}

func TestEngineRunsEventsInTimeOrder(t *testing.T) {
	e := NewEngine(1)
	var got []Time
	for _, d := range []Duration{50, 10, 30, 20, 40} {
		d := d
		e.After(d, e.Bind(func(e *Engine) { got = append(got, e.Now()) }))
	}
	e.Run()
	want := []Time{10, 20, 30, 40, 50}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d fired at %v, want %v", i, got[i], want[i])
		}
	}
}

func TestEngineTieBreakIsFIFO(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(100, e.Bind(func(*Engine) { order = append(order, i) }))
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events fired out of submission order: %v", order)
		}
	}
}

func TestEngineClockAdvancesMonotonically(t *testing.T) {
	e := NewEngine(7)
	last := Time(-1)
	var depth int
	var spawn HandlerID
	spawn = e.Bind(func(e *Engine) {
		if e.Now() < last {
			t.Fatalf("clock went backwards: %v after %v", e.Now(), last)
		}
		last = e.Now()
		if depth < 100 {
			depth++
			e.After(Duration(e.RNG().Intn(50)), spawn)
		}
	})
	e.After(0, spawn)
	e.Run()
	if e.Fired() != 101 {
		t.Fatalf("fired %d events, want 101", e.Fired())
	}
}

func TestEngineSchedulingInPastPanics(t *testing.T) {
	e := NewEngine(1)
	e.After(100, e.Bind(func(e *Engine) {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(50, e.Bind(func(*Engine) {}))
	}))
	e.Run()
}

// TestEngineNilHandlerPanics: binding nil panics, and so does
// scheduling or firing the zero HandlerID or one Bind never returned.
func TestEngineNilHandlerPanics(t *testing.T) {
	e := NewEngine(1)
	h := e.Bind(func(*Engine) {})
	for name, call := range map[string]func(){
		"Bind(nil)":      func() { e.Bind(nil) },
		"After(zero)":    func() { e.After(1, 0) },
		"At(zero)":       func() { e.At(1, 0) },
		"Fire(zero)":     func() { e.Fire(0) },
		"After(unbound)": func() { e.After(1, h+100) },
		"Submit(unbound)": func() {
			NewResource(e, "disk").Submit(Request{Service: 1, Done: h + 100})
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			call()
		}()
	}
	if e.pending() != 0 {
		t.Errorf("%d events scheduled by calls that panicked", e.pending())
	}
}

func TestEngineNegativeDelayPanics(t *testing.T) {
	e := NewEngine(1)
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	e.After(-1, e.Bind(func(*Engine) {}))
}

func TestEngineReentrantRunPanics(t *testing.T) {
	e := NewEngine(1)
	e.After(1, e.Bind(func(e *Engine) {
		defer func() {
			if recover() == nil {
				t.Error("reentrant Run did not panic")
			}
		}()
		e.Run()
	}))
	e.Run()
}

func TestEngineDeterminism(t *testing.T) {
	run := func(seed uint64) []Time {
		e := NewEngine(seed)
		var times []Time
		var spawn HandlerID
		n := 0
		spawn = e.Bind(func(e *Engine) {
			times = append(times, e.Now())
			if n < 200 {
				n++
				e.After(Duration(e.RNG().Intn(1000)+1), spawn)
			}
		})
		e.After(0, spawn)
		e.Run()
		return times
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("different event counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at event %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestTransferTime(t *testing.T) {
	// 8 KB at 10 MB/s = 8192/1e7 s = 819.2 us.
	got := TransferTime(8192, 10)
	want := Duration(819200)
	if got != want {
		t.Errorf("TransferTime(8192, 10) = %v, want %v", got, want)
	}
	if TransferTime(0, 10) != 0 {
		t.Error("zero bytes should take zero time")
	}
}

func TestTransferTimePanicsOnBadBandwidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero bandwidth did not panic")
		}
	}()
	TransferTime(1, 0)
}

func TestTimeArithmetic(t *testing.T) {
	tm := Time(0).Add(Milliseconds(1.5))
	if tm != Time(1_500_000) {
		t.Errorf("1.5 ms = %d ns, want 1500000", tm)
	}
	if tm.Sub(Time(500_000)) != Duration(1_000_000) {
		t.Error("Sub wrong")
	}
	if Milliseconds(1).Milliseconds() != 1 {
		t.Error("Milliseconds round trip failed")
	}
	if Seconds(2).Seconds() != 2 {
		t.Error("Seconds round trip failed")
	}
	if Microseconds(3).Microseconds() != 3 {
		t.Error("Microseconds round trip failed")
	}
}

// Property: for any batch of events with arbitrary non-negative delays,
// the engine fires them all in non-decreasing time order.
func TestEngineOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine(99)
		var fired []Time
		for _, d := range delays {
			e.After(Duration(d), e.Bind(func(e *Engine) { fired = append(fired, e.Now()) }))
		}
		e.Run()
		if len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// FuzzEventOrder checks the engine's firing order against its
// definition: every event, scheduled up front or from inside a handler,
// fires in (time, seq) order, seq being the order of the At calls. Each
// input byte is one event's delay; a handler whose own delay is odd
// schedules the next unscheduled event from inside itself, at that
// event's delay after its own firing. Small delays repeat, so events
// split between the lane and the heap and tie on time.
func FuzzEventOrder(f *testing.F) {
	f.Add([]byte{5, 3, 3, 9, 0, 1, 1, 4})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Add([]byte{200, 1, 199, 2, 198, 3, 3, 3})
	f.Fuzz(func(t *testing.T, delays []byte) {
		type key struct {
			at  Time
			seq int
		}
		e := NewEngine(1)
		var scheduled, fired []key
		next := 0 // the next delay not yet scheduled
		var schedule func(d byte)
		schedule = func(d byte) {
			k := key{e.Now().Add(Duration(d % 16)), len(scheduled)}
			scheduled = append(scheduled, k)
			e.At(k.at, e.Bind(func(e *Engine) {
				fired = append(fired, k)
				if d%2 == 1 && next < len(delays) {
					next++
					schedule(delays[next-1])
				}
			}))
		}
		for next < len(delays) && next < (len(delays)+1)/2 {
			next++
			schedule(delays[next-1])
		}
		e.Run()
		for next < len(delays) { // whatever no handler scheduled
			next++
			schedule(delays[next-1])
			e.Run()
		}
		if e.pending() != 0 || len(fired) != len(delays) {
			t.Fatalf("fired %d of %d events, %d still pending", len(fired), len(delays), e.pending())
		}
		// An event is due no earlier than the firing that scheduled it,
		// and comes after it in seq, so it sorts after every event
		// already fired: the whole run is one (time, seq) order.
		want := slices.Clone(scheduled)
		slices.SortFunc(want, func(a, b key) int {
			if a.at != b.at {
				return int(a.at - b.at)
			}
			return a.seq - b.seq
		})
		if !slices.Equal(fired, want) {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	})
}

// TestLaneCarriesMonotoneBurst schedules what the write-back daemon
// does, a burst of events in time order, interleaved with short timers
// that fall between them: the burst lands in the lane, so the heap
// holds the timers and no more.
func TestLaneCarriesMonotoneBurst(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	count := e.Bind(func(*Engine) { fired++ })
	for i := 0; i < 1000; i++ {
		e.After(Duration(1000+10*i), count)
		if i%125 == 0 {
			e.After(Duration(1+i), count)
		}
	}
	if n := e.queue.n; n > 16 {
		t.Errorf("the heap holds %d events, want at most 16", n)
	}
	if e.lane.len() < 1000 {
		t.Errorf("the lane holds %d events, want the burst's 1000", e.lane.len())
	}
	e.Run()
	if fired != 1008 {
		t.Errorf("fired %d events, want 1008", fired)
	}
}
