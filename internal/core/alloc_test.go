//go:build !race

package core

import (
	"testing"

	"repro/internal/blockdev"
)

// TestObservePredictAllocs gates every predictor's Observe and Predict
// at zero allocations once its table holds the stream's pattern: the
// cursor they exchange is a value, and a warm table grows nothing. The
// in-place steps the driver takes, over two cursor slots, are gated the
// same way. The race detector instruments allocation, so the gate runs
// under plain `go test` only.
func TestObservePredictAllocs(t *testing.T) {
	for _, p := range []Predictor{NewOBA(), NewISPPM(3), NewBlockPPM(2)} {
		t.Run(p.Name(), func(t *testing.T) {
			steps := p.(stepper)
			for _, form := range []string{"value", "in-place"} {
				inPlace := form == "in-place"
				t.Run(form, func(t *testing.T) {
					i, predicted := 0, 0
					var slots [2]Cursor
					live := 0
					step := func() {
						// A cycle of strides and sizes over 24 blocks.
						r := Request{Offset: blockdev.BlockNo(i * 5 % 24), Size: int32(i%2) + 1}
						i++
						if !inPlace {
							cur := p.Observe(r, Tick(i))
							for d := 0; d < 4; d++ { // and a short speculative walk
								var ok bool
								if _, cur, ok = p.Predict(cur); !ok {
									break
								}
								predicted++
							}
							return
						}
						steps.observeTo(r, &slots[1-live])
						live = 1 - live
						for d := 0; d < 4; d++ {
							if _, ok := steps.predictTo(&slots[live], &slots[1-live]); !ok {
								break
							}
							live = 1 - live
							predicted++
						}
					}
					for i < 20*24 {
						step()
					}
					if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
						t.Errorf("%v allocs per warm Observe+Predict walk, want 0", allocs)
					}
					if predicted == 0 {
						t.Error("the stream drew no prediction: nothing was gated")
					}
				})
			}
		})
	}
}

// TestFirstLinkAllocs gates a node's first link at zero allocations:
// it is held inline, and the map is made only for a second.
func TestFirstLinkAllocs(t *testing.T) {
	var nd node
	if allocs := testing.AllocsPerRun(100, func() {
		nd = node{}
		nd.setLink(pair{interval: 3, size: 2})
	}); allocs != 0 {
		t.Errorf("%v allocs per first link, want 0", allocs)
	}
	if nd.firstCount != 1 || nd.more != nil {
		t.Errorf("after one link the node is %+v, want it inline", nd)
	}
}

// dropEnv queues prefetches in a fixed ring and serves none: drop polls
// every operation but the newest, and drops it, done and all, as both
// hosts do with an operation whose chain has moved on.
type dropEnv struct {
	ops     [4]fakeOp
	n       int
	dropped int
}

func (*dropEnv) Cached(blockdev.BlockID) bool { return false }

func (env *dropEnv) Prefetch(b blockdev.BlockID, _ bool, cancelled func() bool, done func()) bool {
	env.ops[env.n] = fakeOp{b, cancelled, done}
	env.n++
	return true
}

func (env *dropEnv) drop() {
	for i := 0; i < env.n-1; i++ {
		if op := env.ops[i]; op.cancelled() {
			op.done()
			env.dropped++
		}
	}
	env.ops[0], env.n = env.ops[env.n-1], 1
}

// TestRestartDropAllocs gates a restarting chain at zero allocations:
// every request mispredicts, so the chain restarts with its one queued
// prefetch stale, and the host drops that prefetch and fires its done,
// which hands the driver its record back for the next issue to take.
// A host that dropped without done would cost every restart a record
// and its two method values.
func TestRestartDropAllocs(t *testing.T) {
	env := &dropEnv{}
	d := NewDriver(DriverConfig{
		Predictor: NewOBA(), Mode: ModeAggressive, Degree: staticWindow(1),
		File: 1, FileBlocks: 1 << 20, Env: env,
	})
	i := 0
	restart := func() {
		i++
		d.OnUserRequest(Request{Offset: blockdev.BlockNo(i % 1000 * 16), Size: 1}, Tick(i), false)
		env.drop()
	}
	for range 10 {
		restart()
	}
	if allocs := testing.AllocsPerRun(1000, restart); allocs != 0 {
		t.Errorf("%v allocs per restart that drops a queued prefetch, want 0", allocs)
	}
	if st, issued := d.Stats(), d.degree.Fates().Issued; env.dropped != i-1 || st.Restarts != uint64(i) || issued != uint64(i) {
		t.Errorf("%d requests: %d dropped, %d restarts, %d issued; want %d, %d, %d",
			i, env.dropped, st.Restarts, issued, i-1, i, i)
	}
}
