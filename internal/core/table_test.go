package core

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/blockdev"
)

// TestTableDisplacementOrder: the victim is the least recently updated
// entry; entries updated back to back (one request, one tick) leave in
// the order they were updated; get, and getOrCreate of an existing key,
// do not count as updates.
func TestTableDisplacementOrder(t *testing.T) {
	tb := newTable[int, string](3)
	order := func() []int {
		var ks []int
		for e := tb.order.Front(); e != nil; e = tb.order.Next(e) {
			ks = append(ks, e.key)
		}
		return ks
	}
	steps := []struct {
		op   string
		key  int
		want []int // least recently updated first
	}{
		{"update", 1, []int{1}},
		{"update", 2, []int{1, 2}},
		{"update", 3, []int{1, 2, 3}},
		{"get", 1, []int{1, 2, 3}},
		{"getOrCreate", 1, []int{1, 2, 3}},
		{"update", 4, []int{2, 3, 4}}, // 1 was read, not updated: it goes first
		{"update", 2, []int{3, 4, 2}},
		{"update", 5, []int{4, 2, 5}},
		{"getOrCreate", 6, []int{2, 5, 6}}, // a created entry is the newest
		{"get", 4, []int{2, 5, 6}},         // absent: nothing created
		{"update", 6, []int{2, 5, 6}},
		{"update", 7, []int{5, 6, 7}},
	}
	for i, s := range steps {
		switch s.op {
		case "get":
			if found := tb.get(s.key) != nil; found != slices.Contains(s.want, s.key) {
				t.Fatalf("step %d: get(%d) found = %v", i, s.key, found)
			}
		case "getOrCreate":
			*tb.getOrCreate(s.key) += "c"
		case "update":
			*tb.update(s.key) += "u"
		}
		if got := order(); !reflect.DeepEqual(got, s.want) {
			t.Fatalf("step %d (%s %d): order %v, want %v", i, s.op, s.key, got, s.want)
		}
		if tb.len() != len(s.want) || tb.len() > 3 {
			t.Fatalf("step %d: len %d, order %v", i, tb.len(), s.want)
		}
	}
	// Values live as long as their entry and start zeroed.
	if got := *tb.get(6); got != "cu" {
		t.Errorf("entry 6 holds %q, want \"cu\"", got)
	}
	if tb.get(1) != nil {
		t.Error("displaced entry 1 still readable")
	}
	if got := *tb.getOrCreate(1); got != "" {
		t.Errorf("re-created entry 1 holds %q, want zero value", got)
	}
}

// TestObserveFlatAtCap is ROADMAP 1a's "flat rounds": when every
// request brings a history the full table has never seen — what two
// readers interleaving on one file produce — Observe must cost about
// what it costs while the table still has room. Displacement by a scan
// of the whole map made it 28x for IS_PPM at the default bound.
func TestObserveFlatAtCap(t *testing.T) {
	const window = DefaultMaxNodes / 4
	preds := []func() Predictor{
		func() Predictor { return NewISPPM(1) },
		func() Predictor { return NewBlockPPM(1) },
	}
	for _, fresh := range preds {
		t.Run(fresh().Name(), func(t *testing.T) {
			// Request i starts at the i-th triangular number: every
			// offset and every interval is new, so each Observe
			// creates one graph node.
			next := 0
			observe := func(p Predictor, n int) time.Duration {
				start := time.Now()
				for ; n > 0; n-- {
					next++
					p.Observe(Request{Offset: blockdev.BlockNo(next * (next + 1) / 2), Size: 1}, Tick(next))
				}
				return time.Since(start)
			}
			// Best of a few runs: a collection or a preemption inside
			// one millisecond-long window is not the predictor's cost.
			var below, atCap time.Duration
			for run := 0; run < 5; run++ {
				p := fresh()
				next = 0
				observe(p, window)
				b := observe(p, window) // table a quarter to half full
				observe(p, 2*DefaultMaxNodes)
				c := observe(p, window) // full for a whole bound's worth of requests
				if run == 0 || b < below {
					below = b
				}
				if run == 0 || c < atCap {
					atCap = c
				}
			}
			t.Logf("per Observe: %v below the bound, %v at it", below/window, atCap/window)
			if atCap > 8*below {
				t.Errorf("Observe at the bound costs %v, %.1fx the %v below it; want <= 8x",
					atCap/window, float64(atCap)/float64(below), below/window)
			}
		})
	}
}
