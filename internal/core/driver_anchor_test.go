package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/blockdev"
)

// randomStream produces requests in runs: sequential, strided, over a
// small cycle, re-reading one place, or jumping about — each run long
// enough for a chain to go dry behind it, short enough that the next
// kind arrives while the chain still remembers the last.
type randomStream struct {
	rng    *rand.Rand
	blocks blockdev.BlockNo
	kind   int
	left   int
	last   Request
	stride blockdev.BlockNo
	cycle  []Request
}

func (s *randomStream) next() Request {
	if s.left == 0 {
		s.kind = [...]int{0, 0, 0, 1, 1, 2, 3, 4}[s.rng.Intn(8)]
		s.left = 4 + s.rng.Intn(90)
		s.last.Size = [...]int32{1, 1, 1, 2, 3}[s.rng.Intn(5)]
		s.stride = blockdev.BlockNo(s.rng.Intn(9) - 2)
		s.cycle = s.cycle[:0]
		for i := 2 + s.rng.Intn(4); i > 0; i-- {
			s.cycle = append(s.cycle, Request{Offset: blockdev.BlockNo(s.rng.Int63n(int64(s.blocks) - 4)), Size: s.last.Size})
		}
		if s.kind == 4 {
			s.left = 1 + s.rng.Intn(3)
		}
	}
	s.left--
	switch s.kind {
	case 0:
		s.last.Offset = s.last.End()
	case 1:
		s.last.Offset += s.stride
	case 2:
		s.last = s.cycle[s.left%len(s.cycle)]
	case 3: // the same place again
	case 4:
		s.last.Offset = blockdev.BlockNo(s.rng.Int63n(int64(s.blocks)))
	}
	if s.last.Offset < 0 || s.last.End() > s.blocks {
		s.last.Offset = blockdev.BlockNo(s.rng.Intn(8)) // wrap around
	}
	return s.last
}

// TestAnchorPreservesDecisions holds the anchored chain to its claim:
// not one prefetch decision differs from a driver that walks in full
// every time. Two drivers of the same algorithm, one over an env that
// counts its evictions and one over the same env with the count hidden,
// see one random script — request runs of every kind, completions,
// closes, refusals, and a cache that loses blocks at random, most of
// them just ahead of the user, in bursts with quiet spells between —
// and must agree, step by step, on every Env.Prefetch call and every
// counter but the number of predictions it took. A third driver sees
// the count too, but its predictor shows only the Predictor methods, so
// it walks through NewDriver's adapter over the value forms: it must
// agree with the first on everything, the number of predictions
// included. A stream stays under DefaultMaxNodes requests, so no
// history table displaces a node.
func TestAnchorPreservesDecisions(t *testing.T) {
	const (
		blocks = 600
		steps  = 4000
		seeds  = 4
	)
	for _, spec := range NamedAlgorithms() {
		if !spec.Prefetches() {
			continue
		}
		t.Run(spec.Name(), func(t *testing.T) {
			var walked, skipped uint64
			for seed := int64(1); seed <= seeds; seed++ {
				rng := rand.New(rand.NewSource(seed))
				type side struct {
					env *fakeEnv
					d   *Driver
				}
				var sides [3]side
				for i := range sides {
					env := cachedEnv(blocks)
					env.limit = 4
					host, pred := Env(env), spec.NewPredictor()
					switch i {
					case 1:
						host = blind{env}
					case 2:
						pred = valueOnly{pred}
					}
					sides[i] = side{env, NewDriver(DriverConfig{
						Predictor: pred, Mode: spec.Mode, Degree: spec.NewDegreePolicy(),
						File: 1, FileBlocks: blocks, Env: host,
					})}
				}
				stream := randomStream{rng: rng, blocks: blocks}
				quiet := false
				for step := 0; step < steps; step++ {
					if rng.Intn(120) == 0 {
						quiet = !quiet
					}
					var act func(s side)
					switch p := rng.Intn(100); {
					case p < 50:
						r := stream.next()
						act = func(s side) {
							satisfied := true
							for b := r.Offset; b < r.End(); b++ {
								satisfied = satisfied && s.env.cache[bid(1, int(b))]
								s.env.cache[bid(1, int(b))] = true // the demand fetch
							}
							s.d.OnUserRequest(r, Tick(step), satisfied)
						}
					case p < 80:
						act = func(s side) { s.env.completeOne() }
					case p < 97 && !quiet:
						var victims [3]blockdev.BlockID
						for i := range victims {
							b := stream.last.End() + blockdev.BlockNo(rng.Intn(70))
							if rng.Intn(10) < 3 || b >= blocks {
								b = blockdev.BlockNo(rng.Intn(blocks))
							}
							victims[i] = bid(1, int(b))
						}
						n := 1 + rng.Intn(len(victims))
						act = func(s side) {
							for _, b := range victims[:n] {
								s.env.evict(b)
							}
						}
					case p >= 98:
						act = func(s side) { s.d.StopChain() }
					default:
						continue
					}
					for _, s := range sides {
						act(s)
					}
					a := sides[0]
					for i, b := range sides[1:] {
						as, bs := a.d.Stats(), b.d.Stats()
						if i == 0 {
							as.PredictionSteps, bs.PredictionSteps = 0, 0
						}
						if as != bs || a.d.Outstanding() != b.d.Outstanding() || a.d.degree.Fates() != b.d.degree.Fates() ||
							!slices.Equal(a.env.issued, b.env.issued) || !slices.Equal(a.env.fallbacks, b.env.fallbacks) {
							t.Fatalf("seed %d step %d: the drivers part ways\ncounting: %+v\n          issued %v\n%-9s %+v\n          issued %v",
								seed, step, as, tail(a.env.issued), [...]string{"blind:", "adapted:"}[i], bs, tail(b.env.issued))
						}
					}
					// Compared; keep the logs short.
					for _, s := range sides {
						s.env.issued, s.env.fallbacks = s.env.issued[:0], s.env.fallbacks[:0]
					}
				}
				walked += sides[1].d.Stats().PredictionSteps
				skipped += sides[1].d.Stats().PredictionSteps - sides[0].d.Stats().PredictionSteps
			}
			t.Logf("%d predictions walking in full, %d of them skipped with the count", walked, skipped)
			// The chains that reach the dry guard must have been spared a
			// good part of their walks (OBA foresees only one-block
			// sequential runs), or the script above exercised nothing.
			if spec.Mode == ModeAggressive && (spec.Kind == AlgOBA || spec.Kind == AlgISPPM) && skipped < walked/10 {
				t.Errorf("only %d of %d predictions skipped: the script never lets a chain stay anchored", skipped, walked)
			}
		})
	}
}

// cachedEnv is a fakeEnv holding every block of file 1.
func cachedEnv(blocks int) *fakeEnv {
	env := newFakeEnv()
	for b := 0; b < blocks; b++ {
		env.cache[bid(1, b)] = true
	}
	return env
}

// valueOnly hides a predictor's in-place steps from NewDriver.
type valueOnly struct{ Predictor }

func tail(b []blockdev.BlockID) []blockdev.BlockID {
	if len(b) > 8 {
		b = b[len(b)-8:]
	}
	return b
}

// counted wraps a predictor and an env to count the calls a driver
// makes of each. It steps in place, as the package's predictors do, so
// what it counts is the path the simulator and the runtime take.
type counted struct {
	Predictor
	*fakeEnv
	predicts, lookups int
}

func (c *counted) observeTo(r Request, dst *Cursor) { c.Predictor.(stepper).observeTo(r, dst) }

func (c *counted) predictTo(src, dst *Cursor) (Prediction, bool) {
	c.predicts++
	return c.Predictor.(stepper).predictTo(src, dst)
}

func (c *counted) Cached(b blockdev.BlockID) bool {
	c.lookups++
	return c.fakeEnv.Cached(b)
}

// TestDryHitCost gates what a satisfied request costs a chain that has
// nothing to fetch, in calls, not time: on a warm, fully cached
// sequential stream the driver makes at most 3 Predict and 2 Cached
// calls per request (it makes 2 and 1: the user's next step, and one
// more at the far end of what it has already seen), all the way into
// the end of the file, where a walk in full makes maxDrySteps = 64 of
// each — which is what an env without the count still gets — and the
// whole dry spell is one ChainStop.
func TestDryHitCost(t *testing.T) {
	const blocks = 2048
	for _, spec := range []AlgSpec{SpecLnAgrOBA, SpecLnAgrISPPM1, SpecLnAgrISPPM3,
		{Kind: AlgBlockPPM, Order: 1, Mode: ModeAggressive, MaxOutstanding: 1}} {
		for _, counts := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/counts=%v", spec.Name(), counts), func(t *testing.T) {
				c := &counted{Predictor: spec.NewPredictor(), fakeEnv: cachedEnv(blocks)}
				host := Env(c)
				if !counts {
					host = blind{c}
				}
				d := NewDriver(DriverConfig{Predictor: c, Mode: spec.Mode, Degree: spec.NewDegreePolicy(),
					File: 1, FileBlocks: blocks, Env: host})
				// One pass to learn the stream, then the pass that counts.
				for b := 0; b < blocks; b++ {
					d.OnUserRequest(Request{Offset: blockdev.BlockNo(b), Size: 1}, Tick(b), true)
				}
				for b := 0; b < blocks; b++ {
					c.predicts, c.lookups = 0, 0
					d.OnUserRequest(Request{Offset: blockdev.BlockNo(b), Size: 1}, Tick(blocks+b), true)
					switch {
					case b < MaxOrder:
						// The jump back to block 0 is still in the history
						// window, and IS_PPM expects another.
					case counts && (c.predicts > 3 || c.lookups > 2):
						t.Fatalf("block %d: %d Predict and %d Cached calls, want at most 3 and 2", b, c.predicts, c.lookups)
					case !counts && b < blocks-64 && (c.predicts != 64 || c.lookups != 64):
						t.Fatalf("block %d: %d Predict and %d Cached calls without the count, want a walk of 64", b, c.predicts, c.lookups)
					}
				}
				if len(c.issued) != 0 {
					t.Errorf("a fully cached file drew prefetches: %v", c.issued)
				}
				if got := d.Stats().ChainStops; got != 1 {
					t.Errorf("%d ChainStops over two passes of hits, want 1: it is one dry spell", got)
				}
			})
		}
	}
}

// TestAnchorYieldsToEviction: an anchored chain notices the one thing
// that can put work in front of it.
func TestAnchorYieldsToEviction(t *testing.T) {
	env := cachedEnv(200)
	d := newDriver(t, NewOBA(), ModeAggressive, 1, 200, env)
	for b := 0; b < 10; b++ {
		d.OnUserRequest(Request{Offset: blockdev.BlockNo(b), Size: 1}, Tick(b), true)
	}
	if st := d.Stats(); len(env.issued) != 0 || st.ChainStops != 1 {
		t.Fatalf("ten hits: issued %v, %d ChainStops, want none and one", env.issued, st.ChainStops)
	}
	env.evict(bid(1, 40)) // inside the window the chain has vouched for
	d.OnUserRequest(Request{Offset: 10, Size: 1}, 10, true)
	if len(env.issued) != 1 || env.issued[0] != bid(1, 40) {
		t.Fatalf("after an eviction in the window: issued %v, want [1:40]", env.issued)
	}
	env.completeAll() // the chain goes on, finds nothing more, and stops
	if st := d.Stats(); st.ChainStops != 2 || len(env.issued) != 1 {
		t.Errorf("after the refetch: issued %v, %d ChainStops, want [1:40] and 2", env.issued, st.ChainStops)
	}
}

// TestAnchorLetsGo pins the other half of the bargain, again in calls:
// only a satisfied request that lands where the chain foresaw, with the
// count unmoved, is spared the walk. Everything else — and a close, a
// miss and a hit elsewhere each leave the anchor's fields looking
// usable — walks in full, as it always did.
func TestAnchorLetsGo(t *testing.T) {
	rows := []struct {
		name      string
		between   func(env *fakeEnv, d *Driver)
		next      Request
		satisfied bool
		full      bool
	}{
		{"the foreseen hit", nil, Request{Offset: 11, Size: 1}, true, false},
		{"an eviction, anywhere", func(env *fakeEnv, _ *Driver) { env.evict(bid(1, 190)) }, Request{Offset: 11, Size: 1}, true, true},
		{"a close", func(_ *fakeEnv, d *Driver) { d.StopChain() }, Request{Offset: 11, Size: 1}, true, true},
		// Cached also vouches for a block in flight; reading it waits.
		{"a miss where a hit was foreseen", nil, Request{Offset: 11, Size: 1}, false, true},
		{"a hit elsewhere", nil, Request{Offset: 50, Size: 1}, true, true},
		{"the same request again", nil, Request{Offset: 10, Size: 1}, true, true},
		{"more of the foreseen block's neighbours", nil, Request{Offset: 11, Size: 2}, true, true},
	}
	for _, spec := range []AlgSpec{SpecLnAgrOBA, SpecLnAgrISPPM3} {
		for _, row := range rows {
			t.Run(spec.Name()+"/"+row.name, func(t *testing.T) {
				// The same story told to a driver that sees the count and to
				// one that does not, which walks in full by construction.
				var predicts [2]int
				for i := range predicts {
					c := &counted{Predictor: spec.NewPredictor(), fakeEnv: cachedEnv(200)}
					host := Env(c)
					if i == 1 {
						host = blind{c}
					}
					d := NewDriver(DriverConfig{Predictor: c, Mode: spec.Mode, Degree: spec.NewDegreePolicy(),
						File: 1, FileBlocks: 200, Env: host})
					for b := 0; b <= 10; b++ {
						d.OnUserRequest(Request{Offset: blockdev.BlockNo(b), Size: 1}, Tick(b), true)
					}
					if row.between != nil {
						row.between(c.fakeEnv, d)
					}
					c.predicts = 0
					d.OnUserRequest(row.next, 11, row.satisfied)
					predicts[i] = c.predicts
					if len(c.issued) != 0 {
						t.Errorf("a fully cached file drew prefetches: %v", c.issued)
					}
				}
				if full := predicts[0] == predicts[1]; full != row.full || !full && predicts[0] > 3 {
					t.Errorf("%d Predict calls where a walk in full makes %d; want it in full: %v", predicts[0], predicts[1], row.full)
				}
			})
		}
	}
}
