package core

// Tick is a point on whichever clock the host of a predictor runs on:
// the discrete-event simulator passes virtual nanoseconds (sim.Time),
// the lapcache runtime a per-file logical sequence number. No
// predictor reads it: recency in a predictor's bounded table is the
// order of its updates (see table), so a model is a function of its
// request stream alone. The argument remains on Predictor.Observe and
// Driver.OnUserRequest because bench/ compiles against those
// signatures; the next benchmark-archetype PR can drop it from both
// sides at once.
type Tick int64
