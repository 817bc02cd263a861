package core

import (
	"reflect"
	"testing"

	"repro/internal/blockdev"
)

// fuzzTarget is one predictor configuration under fuzz.
type fuzzTarget struct {
	fresh   func() Predictor
	rows    func(Predictor) int // current table occupancy
	maxRows int                 // its configured bound
	// maxChain is how many chain steps are walked per request: the PPM
	// graphs may cycle (the driver's file bound and dry-step guard end
	// their chains), so the walk is cut.
	maxChain int
	// seenOnly predictors name only blocks observed before; IS_PPM
	// extrapolates intervals to blocks never accessed. What was
	// observed is a request's first block, or each of its blocks for a
	// blockwise model (BlockPPM).
	seenOnly  bool
	blockwise bool
}

// fuzzPredictor drives the target with an arbitrary request stream and
// checks the invariants every predictor owes the driver: no panics,
// predictions have positive sizes (and name only previously-observed
// blocks where the model promises that), and table memory stays under
// the configured bound. Several requests share each tick, as they do
// on the simulator's clock, and the stream is fed to two fresh
// instances whose prediction chains must be identical: a
// predictor's output is a function of its input alone, whatever the
// order Go iterates its maps in. A third instance takes the in-place
// steps the driver takes, over two cursor slots as the driver holds
// them, so every step overwrites what the one before last left: its
// chains, and every cursor on the way, must be the value forms'.
func fuzzPredictor(t *testing.T, tg fuzzTarget, stream []byte) {
	run := func(inPlace bool) (chains []Prediction, cursors []Cursor) {
		p := tg.fresh()
		var slots [2]Cursor
		live := 0
		// observe and predict leave the new cursor in slots[live].
		observe := func(r Request, now Tick) {
			if inPlace {
				p.(stepper).observeTo(r, &slots[1-live])
				live = 1 - live
			} else {
				slots[live] = p.Observe(r, now)
			}
		}
		predict := func() (pred Prediction, ok bool) {
			if inPlace {
				if pred, ok = p.(stepper).predictTo(&slots[live], &slots[1-live]); ok {
					live = 1 - live
				}
				return pred, ok
			}
			pred, slots[live], ok = p.Predict(slots[live])
			return pred, ok
		}
		seen := make(map[blockdev.BlockNo]bool)
		for i := 0; i+1 < len(stream); i += 2 {
			b := blockdev.BlockNo(stream[i])
			sz := int32(stream[i+1])%8 + 1
			seen[b] = true
			for x := b; tg.blockwise && x < b+blockdev.BlockNo(sz); x++ {
				seen[x] = true
			}
			observe(Request{Offset: b, Size: sz}, Tick(i/8))
			cursors = append(cursors, slots[live])

			for steps := 0; steps < tg.maxChain; steps++ {
				pred, ok := predict()
				if !ok {
					break
				}
				if tg.seenOnly && !seen[pred.Request.Offset] {
					t.Fatalf("predicted never-observed block %d", pred.Request.Offset)
				}
				if pred.Request.Size <= 0 {
					t.Fatalf("predicted non-positive size %d", pred.Request.Size)
				}
				chains = append(chains, pred)
				cursors = append(cursors, slots[live])
			}
			if rc := tg.rows(p); rc > tg.maxRows {
				t.Fatalf("table grew to %d rows, bound is %d", rc, tg.maxRows)
			}
		}
		return chains, cursors
	}
	a, ac := run(false)
	if b, _ := run(false); !reflect.DeepEqual(a, b) {
		t.Fatalf("two fresh instances disagree on one stream:\n%v\n%v", a, b)
	}
	b, bc := run(true)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("the in-place steps predict otherwise than the value forms:\n%v\n%v", a, b)
	}
	// Equal chains give as many cursors: one per request and per step.
	for i := range ac {
		if ac[i] != bc[i] {
			t.Fatalf("cursor %d of %d: value forms %+v, in place %+v", i, len(ac), ac[i], bc[i])
		}
	}
}

// churn is a seed whose requests keep producing histories a tiny table
// has no room for: offsets wander over a few dozen blocks with varying
// strides and sizes, then the walk repeats so that the surviving nodes
// are the ones the next predictions need.
func churn() []byte {
	var s []byte
	for pass := 0; pass < 3; pass++ {
		off := 0
		for i := 0; i < 40; i++ {
			off = (off + i*i%11 + 1) % 47
			s = append(s, byte(off), byte(i%3))
		}
	}
	return s
}

// FuzzISPPM fuzzes the paper's predictor under a graph of eight nodes,
// at order 1 and at order 3, where a cold window is shorter than the
// one a reused cursor slot held before.
func FuzzISPPM(f *testing.F) {
	f.Add([]byte{0, 1, 3, 2, 8, 1, 11, 2, 16, 1, 19, 2})
	f.Add([]byte{0, 0, 0, 0, 0, 0})
	f.Add(churn())
	var tgs []fuzzTarget
	for _, order := range []int{1, 3} {
		tgs = append(tgs, fuzzTarget{
			fresh:   func() Predictor { return newISPPMSized(order, 8) },
			rows:    func(p Predictor) int { return p.(*ISPPM).nodeCount() },
			maxRows: 8, maxChain: 6,
		})
	}
	f.Fuzz(func(t *testing.T, stream []byte) {
		for _, tg := range tgs {
			fuzzPredictor(t, tg, stream)
		}
	})
}

// FuzzBlockPPM does the same for the block-granularity baseline, at
// order 2 so that most histories are new.
func FuzzBlockPPM(f *testing.F) {
	f.Add([]byte{1, 1, 2, 1, 1, 1, 2, 1})
	f.Add([]byte{0, 0, 0, 0, 0, 0})
	f.Add(churn())
	tg := fuzzTarget{
		fresh:   func() Predictor { return newBlockPPM(2, 8) },
		rows:    func(p Predictor) int { return p.(*BlockPPM).nodeCount() },
		maxRows: 8, maxChain: 6, seenOnly: true, blockwise: true,
	}
	f.Fuzz(func(t *testing.T, stream []byte) { fuzzPredictor(t, tg, stream) })
}
