package conformance

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/cachesim"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/lapcache"
	"repro/internal/sim"
)

// TestSimConformance sweeps every registered algorithm over the golden
// micro-trace and holds each to the suite's simulation invariants:
//
//   - determinism: two runs from the same seed produce identical
//     Results, float for float and counter for counter;
//   - throttle: the machine-wide per-file outstanding-prefetch
//     high-water never exceeds the spec's MaxOutstanding.
func TestSimConformance(t *testing.T) {
	s := experiment.TinyScale()
	tr := MicroTrace(s.NOW.Nodes, s.NOW.BlockSize)
	for _, alg := range core.NamedAlgorithms() {
		alg := alg
		t.Run(alg.Name(), func(t *testing.T) {
			t.Parallel()
			cell := experiment.Cell{FS: experiment.PAFS, Workload: experiment.Charisma, Alg: alg, CacheMB: 1}
			r1, err := experiment.RunTrace(tr, s.NOW, cell, s.WarmFraction)
			if err != nil {
				t.Fatalf("run 1: %v", err)
			}
			r2, err := experiment.RunTrace(tr, s.NOW, cell, s.WarmFraction)
			if err != nil {
				t.Fatalf("run 2: %v", err)
			}
			if !reflect.DeepEqual(r1, r2) {
				t.Errorf("same seed, different results:\n  run 1: %+v\n  run 2: %+v", r1, r2)
			}
			if cap := alg.MaxOutstanding; cap > 0 && r1.MaxFilePrefetchHW > cap {
				t.Errorf("per-file prefetch high-water %d exceeds policy cap %d", r1.MaxFilePrefetchHW, cap)
			}
			if !alg.Prefetches() && r1.PrefetchIssued != 0 {
				t.Errorf("NP issued %d prefetches", r1.PrefetchIssued)
			}
		})
	}
}

// TestEngineConformance replays the demand script against a live
// engine under every registered algorithm, with buffer poisoning on
// throughout (a double-release or use-after-release panics the run),
// and checks the teardown invariants: no file's prefetch count went past
// the cap, and after Shutdown + DrainCache not one
// block buffer is still live.
func TestEngineConformance(t *testing.T) {
	for _, alg := range core.NamedAlgorithms() {
		alg := alg
		t.Run(alg.Name(), func(t *testing.T) {
			t.Parallel()
			const blockSize = 512
			e, err := lapcache.New(lapcache.Config{
				Alg:         alg,
				Store:       lapcache.NewMemStore(blockSize, 0),
				BlockSize:   blockSize,
				CacheBlocks: 48, // smaller than the script's footprint: evictions happen
				FileBlocks:  EngineFiles(),
				PoisonBufs:  true,
			})
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			for _, st := range EngineScript() {
				bufs, _, err := e.ReadInto(nil, st.File, st.Block, int32(st.Count))
				if err != nil {
					t.Fatalf("read %d:%d: %v", st.File, st.Block, err)
				}
				for _, buf := range bufs {
					buf.Release()
				}
			}
			// Let in-flight prefetch chains run dry before auditing.
			deadline := time.Now().Add(10 * time.Second)
			for {
				s := e.Snapshot()
				if s.PrefetchCompleted+s.PrefetchCancelled+s.PrefetchDupSkipped >= s.PrefetchIssued {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("prefetch chains never quiesced: %s", s)
				}
				time.Sleep(time.Millisecond)
			}

			snap := e.Snapshot()
			if snap.LinearViolations != 0 {
				t.Errorf("%d linearity violations", snap.LinearViolations)
			}
			if cap := alg.MaxOutstanding; cap > 0 {
				if hw := snap.MaxFileOutstandingHW; hw > cap {
					t.Errorf("file high-water %d exceeds policy cap %d", hw, cap)
				}
			}
			e.Shutdown()
			e.DrainCache()
			if live := e.BufLive(); live != 0 {
				t.Errorf("BufLive = %d after drain, want 0 (leaked or double-held buffers)", live)
			}
		})
	}
}

// TestMicroTraceValid pins the golden trace itself: it must validate
// against the tiny machine and be deterministic, or every result above
// is meaningless.
func TestMicroTraceValid(t *testing.T) {
	s := experiment.TinyScale()
	tr := MicroTrace(s.NOW.Nodes, s.NOW.BlockSize)
	if err := tr.Validate(s.NOW.Nodes, s.NOW.BlockSize); err != nil {
		t.Fatalf("micro trace invalid: %v", err)
	}
	if !reflect.DeepEqual(tr, MicroTrace(s.NOW.Nodes, s.NOW.BlockSize)) {
		t.Fatal("micro trace not deterministic")
	}
	if got := len(EngineScript()); got != 180 {
		t.Fatalf("engine script has %d steps, want 180", got)
	}
	if !reflect.DeepEqual(EngineScript(), EngineScript()) {
		t.Fatal("engine script not deterministic")
	}
}

// fate is the (timely, wasted, unused) triple both tiers keep per
// prefetched block.
type fate struct{ timely, wasted, unused uint64 }

// TestPrefetchFateRules pins the one rule table both tiers apply to a
// prefetched block: one scripted sequence, driven through the
// simulator's cooperative cache and through a live engine, must book
// the same fate after every step. The rules themselves live where a
// block is touched and evicted — cachesim and the engine's block cache
// — so this table is what the tiers share.
func TestPrefetchFateRules(t *testing.T) {
	const (
		capacity = 4
		file     = blockdev.FileID(1)
	)
	type kind int
	const (
		arrive kind = iota // a speculative block lands in the cache
		read               // a user read of the block
		write              // a user write of the block
	)
	script := []struct {
		rule  string
		do    kind
		block blockdev.BlockNo
		want  fate
	}{
		{"arrival alone decides nothing", arrive, 0, fate{0, 0, 1}},
		{"", arrive, 1, fate{0, 0, 2}},
		{"", arrive, 2, fate{0, 0, 3}},
		{"", arrive, 3, fate{0, 0, 4}},
		{"first touch after arrival is timely", read, 0, fate{1, 0, 3}},
		{"a second touch is just a hit", read, 0, fate{1, 0, 3}},
		{"a write over a flagged block is its first touch", write, 1, fate{2, 0, 2}},
		// The demand fill evicts block 2, the LRU; block 3 is left over.
		{"evicted untouched is wasted, still flagged at the end is unused", read, 10, fate{2, 1, 1}},
	}

	simulator := func() func(kind, blockdev.BlockNo) fate {
		files := blockdev.NewNumbering(map[blockdev.FileID]blockdev.BlockNo{file: 16})
		c := cachesim.New(sim.NewEngine(1), 1, capacity, cachesim.GlobalLRU{}, files.Len())
		// The cache signals the fates, as the file systems see them: the
		// hook for a timely one, the victim's flag for a wasted one.
		var timely, wasted uint64
		c.OnPrefetchUsed = func(int32) { timely++ }
		book := func(victims []cachesim.Victim) {
			for _, v := range victims {
				if v.WasUnusedPrefetch {
					wasted++
				}
			}
		}
		return func(do kind, blk blockdev.BlockNo) fate {
			b := files.File(file).Slot(blockdev.BlockID{File: file, Block: blk})
			switch cp := c.Find(b); {
			case do == arrive:
				_, victims := c.Insert(0, b, cachesim.InsertOptions{Prefetched: true})
				book(victims)
			case cp != nil:
				// A resident block: reads and writes both touch it.
				c.Use(cp)
				if do == write {
					c.MarkDirty(b)
				}
			default:
				_, victims := c.Insert(0, b, cachesim.InsertOptions{Dirty: do == write})
				book(victims)
			}
			return fate{timely, wasted, c.UnusedPrefetchedCopies()}
		}
	}()

	e, err := lapcache.New(lapcache.Config{
		Alg:         core.SpecNP,
		Store:       lapcache.NewMemStore(512, 0),
		BlockSize:   512,
		CacheBlocks: capacity,
		Shards:      1, // one LRU list, like the 1-node simulator cache
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Shutdown()
	runtime := func(do kind, blk blockdev.BlockNo) fate {
		switch do {
		case arrive:
			e.Preload(file, blk, 1, true)
		case read:
			bufs, _, err := e.ReadInto(nil, file, blk, 1)
			if err != nil {
				t.Fatalf("read %d: %v", blk, err)
			}
			bufs[0].Release()
		case write:
			if err := e.Write(file, blk, 1, nil); err != nil {
				t.Fatalf("write %d: %v", blk, err)
			}
		}
		s := e.Snapshot()
		return fate{s.PrefetchTimely, s.PrefetchWasted, s.PrefetchUnused}
	}

	for i, st := range script {
		if got := simulator(st.do, st.block); got != st.want {
			t.Errorf("step %d (%s): simulator books %+v, want %+v", i, st.rule, got, st.want)
		}
		if got := runtime(st.do, st.block); got != st.want {
			t.Errorf("step %d (%s): runtime books %+v, want %+v", i, st.rule, got, st.want)
		}
	}
}
