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
	e      *sim.Engine
	disks  *diskmodel.Array
	cached map[blockdev.BlockID]bool
	idle   []*read // finished prefetch reads, for reuse
}

// read is one prefetch read in flight. The simulator schedules
// handlers by the ID Bind returns, so the record binds its completion
// once, when it is first made, and is reused after.
type read struct {
	env       *env
	b         blockdev.BlockID
	cancelled func() bool
	done      func()
	landed    sim.HandlerID // the disk finished the read
}

func (e *env) Cached(b blockdev.BlockID) bool { return e.cached[b] }

// Evictions (core.Env's optional count) never moves: the set only grows.
func (e *env) Evictions() uint64 { return 0 }

// Prefetch reads b at prefetch priority. The disk polls drop when the
// read reaches the head of its queue and never completes a dropped
// read, so drop fires done itself: core.Env asks for done once, served
// or dropped.
func (e *env) Prefetch(b blockdev.BlockID, _ bool, cancelled func() bool, done func()) bool {
	var r *read
	if n := len(e.idle); n > 0 {
		r, e.idle = e.idle[n-1], e.idle[:n-1]
	} else {
		r = &read{env: e}
		r.landed = e.e.Bind(r.finish)
	}
	r.b, r.cancelled, r.done = b, cancelled, done
	e.disks.Read(b, sim.PriorityPrefetch, r.drop, r.landed)
	return true
}

func (r *read) drop() bool {
	if !r.cancelled() {
		return false
	}
	r.release()()
	return true
}

func (r *read) finish(*sim.Engine) {
	r.env.cached[r.b] = true
	r.release()()
}

// release frees the record and returns the done it held.
func (r *read) release() func() {
	done := r.done
	r.cancelled, r.done = nil, nil
	r.env.idle = append(r.env.idle, r)
	return done
}

// The scan: stride 4, one block per request, 25 ms of think time.
const (
	stride     = 4
	fileBlocks = 4000
	requests   = 400
)

// scan is the strided read stream, with one request outstanding at a
// time: landed ends a request's disk read, next its think time.
type scan struct {
	envr         *env
	drv          *core.Driver
	i            int
	off          blockdev.BlockNo
	hits         int
	landed, next sim.HandlerID
}

// step issues request s.i, of block s.off.
func (s *scan) step(e *sim.Engine) {
	if s.i >= requests {
		return
	}
	blk := blockdev.BlockID{File: 1, Block: s.off}
	satisfied := s.envr.cached[blk]
	if satisfied {
		s.hits++
		e.Fire(s.landed)
	} else {
		s.envr.disks.Read(blk, sim.PriorityUser, nil, s.landed)
	}
	s.drv.OnUserRequest(core.Request{Offset: blk.Block, Size: 1}, core.Tick(e.Now()), satisfied)
}

// land marks the block of request s.i cached and starts the think time
// of the next.
func (s *scan) land(e *sim.Engine) {
	s.envr.cached[blockdev.BlockID{File: 1, Block: s.off}] = true
	s.i, s.off = s.i+1, s.off+stride
	e.After(sim.Milliseconds(25), s.next)
}

// simulateScan runs the scan against the given predictor and reports
// how many requests found their block already prefetched.
func simulateScan(pred core.Predictor) (hits, total int) {
	e := sim.NewEngine(7)
	cfg := machine.PM()
	envr := &env{e: e, disks: diskmodel.NewArray(e, cfg), cached: make(map[blockdev.BlockID]bool)}
	s := &scan{envr: envr, drv: core.NewDriver(core.DriverConfig{
		Predictor:  pred,
		Mode:       core.ModeAggressive,
		Degree:     core.SpecLnAgrOBA.NewDegreePolicy(), // the paper's linear throttle: one in flight
		File:       1,
		FileBlocks: fileBlocks,
		Env:        envr,
	})}
	s.landed, s.next = e.Bind(s.land), e.Bind(s.step)
	s.step(e)
	e.Run()
	return s.hits, s.i // every request issued has landed
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
