// custom_policy shows the extension surface of the core library: a
// user-written predictor implementing core.Predictor, driven by the
// same linear aggressive Driver the paper's algorithms use, over the
// simulated disk array. It pits a hard-wired fixed-stride predictor
// against OBA and IS_PPM:1 on a strided access stream.
//
//	go run ./examples/custom_policy
package main

import (
	"fmt"

	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/diskmodel"
	"repro/internal/machine"
	"repro/internal/sim"
)

// strider is a trivial custom predictor: it assumes the application
// always jumps exactly `stride` blocks ahead and reads `size` blocks.
// Unlike IS_PPM it cannot learn, but on a matching stream it predicts
// from the very first request.
type strider struct {
	stride blockdev.BlockNo
	size   int32
}

func (s *strider) Name() string { return fmt.Sprintf("Stride+%d", s.stride) }

// Observe returns the predictor's position: a core.Cursor is a plain
// value, and all this model needs of it is the offset of the last
// (real or speculative) request.
func (s *strider) Observe(r core.Request, _ core.Tick) core.Cursor {
	return core.Cursor{Offset: r.Offset, Size: r.Size}
}

func (s *strider) Predict(c core.Cursor) (core.Prediction, core.Cursor, bool) {
	next := core.Request{Offset: c.Offset + s.stride, Size: s.size}
	return core.Prediction{Request: next}, core.Cursor{Offset: next.Offset, Size: next.Size}, true
}

// env adapts a bare disk array and a block set into the driver's Env.
type env struct {
	disks  *diskmodel.Array
	cached map[blockdev.BlockID]bool
}

func (e *env) Cached(b blockdev.BlockID) bool { return e.cached[b] }

// Evictions (core.Env's optional count) never moves: the set only grows.
func (e *env) Evictions() uint64 { return 0 }

// Prefetch reads b at prefetch priority. The disk polls drop when the
// read reaches the head of its queue and never completes a dropped
// read, so drop fires done itself: core.Env asks for done once, served
// or dropped.
func (e *env) Prefetch(b blockdev.BlockID, _ bool, cancelled func() bool, done func()) bool {
	drop := func() bool {
		if !cancelled() {
			return false
		}
		done()
		return true
	}
	e.disks.Read(b, sim.PriorityPrefetch, drop, func(eng *sim.Engine, at sim.Time) {
		e.cached[b] = true
		done()
	})
	return true
}

// simulateScan runs a strided read stream (stride 4, one block per
// request, 25 ms of think time) against the given predictor and
// reports how many requests found their block already prefetched.
func simulateScan(pred core.Predictor) (hits, total int) {
	const (
		stride     = 4
		fileBlocks = 4000
		requests   = 400
	)
	e := sim.NewEngine(7)
	cfg := machine.PM()
	envr := &env{disks: diskmodel.NewArray(e, cfg), cached: make(map[blockdev.BlockID]bool)}
	drv := core.NewDriver(core.DriverConfig{
		Predictor:  pred,
		Mode:       core.ModeAggressive,
		Degree:     core.SpecLnAgrOBA.NewDegreePolicy(), // the paper's linear throttle: one in flight
		File:       1,
		FileBlocks: fileBlocks,
		Env:        envr,
	})
	var step func(i int, off blockdev.BlockNo)
	step = func(i int, off blockdev.BlockNo) {
		if i >= requests {
			return
		}
		blk := blockdev.BlockID{File: 1, Block: off}
		satisfied := envr.cached[blk]
		if satisfied {
			hits++
		}
		total++
		finish := func(*sim.Engine, sim.Time) {
			envr.cached[blk] = true
			e.After(sim.Milliseconds(25), func(*sim.Engine) { step(i+1, off+stride) })
		}
		if satisfied {
			finish(e, e.Now())
		} else {
			envr.disks.Read(blk, sim.PriorityUser, nil, finish)
		}
		drv.OnUserRequest(core.Request{Offset: off, Size: 1}, core.Tick(e.Now()), satisfied)
	}
	step(0, 0)
	e.Run()
	return hits, total
}

func main() {
	fmt.Println("strided scan (stride 4), linear aggressive driver:")
	for _, pred := range []core.Predictor{
		core.NewOBA(),
		core.NewISPPM(1),
		&strider{stride: 4, size: 1},
	} {
		hits, total := simulateScan(pred)
		fmt.Printf("  %-12s prefetch hit ratio %3.0f%%\n", pred.Name(), 100*float64(hits)/float64(total))
	}
	fmt.Println("\nOBA never matches the stride; IS_PPM learns it after a few")
	fmt.Println("requests; the custom predictor knows it from the start.")
}
