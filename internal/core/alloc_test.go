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
