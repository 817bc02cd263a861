// Package core implements the paper's contribution: the prefetch
// predictors — One-Block-Ahead (OBA) and the Interval-and-Size
// prediction-by-partial-match family (IS_PPM:j) — and the driver that
// turns any predictor into a *linear aggressive* prefetcher: one that
// keeps walking the prediction chain ahead of the application while
// never keeping more than a fixed number of prefetch operations (one,
// in the paper) in flight per file.
package core

import (
	"fmt"

	"repro/internal/blockdev"
)

// Request is one user request as seen by a predictor: the block-level
// image of a read or write, reduced to its first block and its length
// in blocks. The paper models the access stream of a file as the
// sequence of (offset-interval, size) pairs derived from consecutive
// Requests (§2.2).
type Request struct {
	Offset blockdev.BlockNo // first block of the request
	Size   int32            // number of blocks
}

// End returns the first block after the request.
func (r Request) End() blockdev.BlockNo { return r.Offset + blockdev.BlockNo(r.Size) }

// String renders the request as "[off,+size]".
func (r Request) String() string { return fmt.Sprintf("[%d,+%d]", r.Offset, r.Size) }

// Prediction is a predictor's guess at the next request.
type Prediction struct {
	Request
	// Fallback marks predictions produced by the cold-start OBA rule
	// inside IS_PPM rather than by the pattern graph; the paper
	// reports what fraction of prefetched blocks came from it (§2.2).
	Fallback bool
}

// Cursor is a snapshot of a predictor's position in its model.
// Aggressive drivers hold a *speculative* cursor that walks ahead of
// the real access stream ("it behaves as if the user had already
// requested the prefetched blocks and goes for the next node in the
// graph", §3.1) and reset it to the real cursor after a misprediction.
//
// It is one fixed-size, comparable value for every predictor, not an
// interface over a type per predictor: Observe and Predict sit on the
// path of every request, and a boxed cursor is a heap allocation per
// call. Observe returning the very cursor a walk's Predict returned
// tells the driver the request was foreseen. A predictor fills in the
// fields its model needs and ignores the rest; a cursor means
// something only to the predictor that returned it.
type Cursor struct {
	// Offset and Size are the request the walk stands on: the last one
	// observed or, further along a chain, the last one predicted.
	Offset blockdev.BlockNo
	Size   int32
	// hist is the history window of the two PPM predictors.
	hist histKey
}

// Predictor learns the access stream of one file and predicts the next
// request. Implementations are single-goroutine, like the simulator.
//
// A predictor written outside this package implements these value
// forms, and NewDriver adapts them to its walk. The package's own
// predictors also step in place (see stepper), which is the path the
// driver takes for them; their Observe and Predict wrap it.
type Predictor interface {
	// Name identifies the algorithm (e.g. "OBA", "IS_PPM:3").
	Name() string
	// Observe records a real user request, updating the model, and
	// returns the cursor positioned after that request.
	Observe(r Request, now Tick) Cursor
	// Predict returns the predicted request following the given
	// cursor plus the cursor advanced past the prediction. ok is false
	// when the predictor has no basis for any guess (e.g. before the
	// first request).
	Predict(c Cursor) (p Prediction, next Cursor, ok bool)
}

// stepper is Predictor's Observe and Predict writing the cursor in
// place, so that the driver's walk, a Predict per step on every request
// and every prefetch completion, copies no cursor. Each writes dst with
// the very bytes the value form returns and leaves dst as it was when
// ok is false; dst may be src.
type stepper interface {
	observeTo(r Request, dst *Cursor)
	predictTo(src, dst *Cursor) (Prediction, bool)
}

// valueSteps adapts a Predictor that has only the value forms.
type valueSteps struct {
	Predictor
	now *Tick // the tick of the request being observed
}

func (v valueSteps) observeTo(r Request, dst *Cursor) { *dst = v.Observe(r, *v.now) }

func (v valueSteps) predictTo(src, dst *Cursor) (Prediction, bool) {
	p, next, ok := v.Predict(*src)
	if ok {
		*dst = next
	}
	return p, ok
}
