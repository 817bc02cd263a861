package core

import (
	"testing"
	"testing/quick"

	"repro/internal/blockdev"
)

// Property: under arbitrary request sequences and completion orders,
// a driver never has more than its fixed degree of prefetches in
// flight, and its outstanding counter matches the environment's.
func TestDriverOutstandingInvariantProperty(t *testing.T) {
	f := func(ops []uint32, maxOut8 uint8) bool {
		maxOut := int(maxOut8%3) + 1
		env := newFakeEnv()
		d := NewDriver(DriverConfig{
			Predictor:  NewISPPM(1),
			Mode:       ModeAggressive,
			Degree:     staticWindow(maxOut),
			File:       1,
			FileBlocks: 256,
			Env:        env,
		})
		now := Tick(1)
		for _, op := range ops {
			switch op % 3 {
			case 0: // user request at a pseudo-random position
				off := blockdev.BlockNo(op >> 4 % 256)
				size := int32(op>>12%4) + 1
				blk := blockdev.BlockID{File: 1, Block: off}
				d.OnUserRequest(Request{Offset: off, Size: size}, now, env.cache[blk])
			case 1: // a prefetch completes
				env.completeOne()
			case 2: // the file is closed
				d.StopChain()
			}
			now++
			if d.Outstanding() > maxOut {
				return false
			}
			// Count live (non-orphaned) in-flight ops.
			live := 0
			for _, ifl := range env.inflight {
				if !ifl.cancelled() {
					live++
				}
			}
			if live > maxOut {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: IS_PPM never panics and produces in-range speculative
// cursors for arbitrary observation sequences, including pathological
// offsets and sizes.
func TestISPPMRobustnessProperty(t *testing.T) {
	f := func(offs []uint16, order8 uint8) bool {
		order := int(order8%3) + 1
		m := newISPPMSized(order, 64)
		var cur Cursor
		for i, o := range offs {
			r := Request{Offset: blockdev.BlockNo(o % 4096), Size: int32(o%7) + 1}
			cur = m.Observe(r, Tick(i+1))
		}
		if len(offs) == 0 {
			return true
		}
		// Walk the speculative chain a while; every step must either
		// produce a prediction or stop, never loop in the same cursor
		// with identical output forever... we just require no panic
		// and well-formed sizes.
		for i := 0; i < 32; i++ {
			p, next, ok := m.Predict(cur)
			if !ok {
				break
			}
			if p.Size < 1 {
				return false
			}
			cur = next
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Property: OBA's speculative chain is strictly increasing and gapless.
func TestOBAChainMonotoneProperty(t *testing.T) {
	f := func(start uint16, size8 uint8, steps uint8) bool {
		o := NewOBA()
		size := int32(size8%16) + 1
		cur := o.Observe(Request{Offset: blockdev.BlockNo(start), Size: size}, 1)
		expect := blockdev.BlockNo(start) + blockdev.BlockNo(size)
		for i := 0; i < int(steps%40); i++ {
			p, next, ok := o.Predict(cur)
			if !ok || p.Offset != expect || p.Size != 1 {
				return false
			}
			expect++
			cur = next
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
