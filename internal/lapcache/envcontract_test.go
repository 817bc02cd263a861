package lapcache

import (
	"sync"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/cachesim"
	"repro/internal/core"
	"repro/internal/fscommon"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/workload"
)

// stepStore holds every read until the test lets it go, one at a time.
type stepStore struct {
	BackingStore
	started chan blockdev.BlockID
	proceed chan struct{}
}

func (s *stepStore) ReadBlock(b blockdev.BlockID, buf []byte) error {
	s.started <- b
	<-s.proceed
	return s.BackingStore.ReadBlock(b, buf)
}

// TestEnvPrefetchContract pins what core.Env promises the driver about
// the two callbacks of an accepted prefetch — the promise that lets
// the driver reuse an operation's record once its done has run, a
// dropped operation's too — on both hosts: the simulator's
// fscommon.Base.Prefetch over one disk and the runtime's prefetch queue
// under one worker. One script: four operations issued back to back, so
// the first is in service while the others wait their turn.
func TestEnvPrefetchContract(t *testing.T) {
	const file = blockdev.FileID(1)
	type staleness int
	const (
		never       staleness = iota
		whileQueued           // its chain restarted before its turn came
		inService             // its chain restarted while it was being served
	)
	// Every accepted operation's done fires once: after it is served, or
	// after cancelled said true and it was dropped.
	rows := []struct {
		name    string
		stale   staleness
		dropped bool // if accepted
	}{
		{"accept, complete", never, false},
		{"cancel while queued", whileQueued, true},
		{"restart in service, then complete", inService, false},
		// The runtime's queue (two slots here) is full by now and refuses;
		// the simulator never refuses and runs it like the first.
		{"refuse, or accept and complete", never, false},
	}
	// host is an Env plus the test's handle on its clock: advance lets
	// the operation in service end and the next live one start; drain
	// lets everything accepted end.
	type host struct {
		name     string
		prefetch func(b blockdev.BlockID, cancelled func() bool, done func()) bool
		advance  func()
		drain    func()
	}

	simHost := func(t *testing.T) host {
		e := sim.NewEngine(1)
		cfg := machine.PM()
		cfg.Nodes, cfg.Disks = 2, 1
		tr := &workload.Trace{FileBlocks: map[blockdev.FileID]blockdev.BlockNo{file: 8}}
		b := fscommon.NewBase(e, cfg, 16, cachesim.GlobalLRU{}, tr, core.SpecLnAgrOBA)
		b.Coll.StartMeasurement() // advance counts the disk's reads
		return host{
			name: "simulator",
			prefetch: func(blk blockdev.BlockID, cancelled func() bool, done func()) bool {
				return b.Prefetch(0, tr.Numbering().File(file).Slot(blk), cancelled, done)
			},
			advance: func() {
				served := b.Coll.DiskReads()
				e.RunUntil(func() bool { return b.Coll.DiskReads() > served })
			},
			drain: func() { e.Run() },
		}
	}
	runtimeHost := func(t *testing.T) host {
		st := &stepStore{BackingStore: NewMemStore(512, 0), started: make(chan blockdev.BlockID), proceed: make(chan struct{})}
		e := newTestEngine(t, Config{Alg: core.SpecLnAgrOBA, Store: st, Workers: 1, QueueLen: 2})
		env := &runtimeEnv{e: e, fl: e.fileState(file)}
		inService := false
		return host{
			name: "runtime",
			prefetch: func(blk blockdev.BlockID, cancelled func() bool, done func()) bool {
				ok := env.Prefetch(blk, false, cancelled, done)
				if ok && !inService {
					<-st.started // the worker took it straight into service
					inService = true
				}
				return ok
			},
			advance: func() {
				st.proceed <- struct{}{}
				<-st.started
			},
			drain: func() {
				st.proceed <- struct{}{}
				waitFor(t, "the last prefetch to complete", func() bool { return e.Snapshot().PrefetchCompleted == 2 })
			},
		}
	}

	for _, mk := range []func(*testing.T) host{simHost, runtimeHost} {
		h := mk(t)
		t.Run(h.name, func(t *testing.T) {
			type op struct {
				mu                 sync.Mutex // the runtime calls back from its worker
				stale, serving     bool
				accepted           bool
				polls, dones       int
				polledInService    bool
				doneAfterCancelled bool
				saidCancelled      bool
			}
			ops := make([]*op, len(rows))
			mark := func(o *op, f func()) { o.mu.Lock(); f(); o.mu.Unlock() }
			for i, row := range rows {
				o := &op{stale: row.stale == whileQueued}
				ops[i] = o
				o.accepted = h.prefetch(blockdev.BlockID{File: file, Block: blockdev.BlockNo(i)},
					func() bool {
						o.mu.Lock()
						defer o.mu.Unlock()
						o.polls++
						o.polledInService = o.polledInService || o.serving
						o.saidCancelled = o.saidCancelled || o.stale
						return o.stale
					},
					func() { mark(o, func() { o.dones++; o.doneAfterCancelled = o.saidCancelled }) })
			}
			mark(ops[0], func() { ops[0].serving = true })
			h.advance() // op 0 ends, op 1 is dropped at its turn, op 2 starts
			mark(ops[2], func() { ops[2].serving, ops[2].stale = true, true })
			h.drain()

			for i, row := range rows {
				o := ops[i]
				o.mu.Lock()
				switch {
				case !o.accepted:
					if o.polls+o.dones != 0 {
						t.Errorf("%s: refused, yet polled %d times and completed %d times", row.name, o.polls, o.dones)
					}
				case o.polls > 1 || o.polledInService:
					t.Errorf("%s: cancelled polled %d times (in service: %v), want at most once and before service", row.name, o.polls, o.polledInService)
				case o.dones != 1 || o.doneAfterCancelled != row.dropped:
					t.Errorf("%s: done fired %d times (after cancelled said true: %v), want once (%v)", row.name, o.dones, o.doneAfterCancelled, row.dropped)
				}
				o.mu.Unlock()
			}
			if refused := !ops[3].accepted; refused != (h.name == "runtime") {
				t.Errorf("fourth operation refused: %v", refused)
			}
		})
	}
}

// evictionWatch is the optional half of core.Env's contract as a check:
// between two looks, no block may go from Cached to not Cached unless
// Evictions moved (see the pafs suite's copy).
type evictionWatch struct {
	env   *runtimeEnv
	was   map[blockdev.BlockID]bool
	count uint64
	flips int
}

func (w *evictionWatch) look(t *testing.T, file blockdev.FileID, blocks int) {
	t.Helper()
	count := w.env.Evictions()
	for b := 0; b < blocks; b++ {
		blk := blockdev.BlockID{File: file, Block: blockdev.BlockNo(b)}
		now := w.env.Cached(blk)
		if w.was[blk] && !now {
			w.flips++
			if count == w.count {
				t.Errorf("block %v is no longer cached and the count still stands at %d", blk, count)
			}
		}
		w.was[blk] = now
	}
	w.count = count
}

// TestEnvEvictionCount watches runtimeEnv across the three ways the
// runtime takes back what Cached said: an insert into a full cache, a
// fetch the driver saw in flight whose store read then fails, and a
// drained cache.
func TestEnvEvictionCount(t *testing.T) {
	const (
		file   = blockdev.FileID(1)
		blocks = 16
	)
	gs := newGateStore(NewMemStore(512, 0), 12)
	e := newTestEngine(t, Config{Alg: core.SpecNP, Store: gs, CacheBlocks: 8, Shards: 1})
	w := &evictionWatch{env: &runtimeEnv{e: e, fl: e.fileState(file)}, was: map[blockdev.BlockID]bool{}}
	rows := []struct {
		name  string
		step  func(t *testing.T)
		flips int
	}{
		{"an insert makes room", func(t *testing.T) {
			if _, _, err := readCopy(e, file, 8, 4); err != nil {
				t.Fatal(err)
			}
		}, 4},
		{"a fetch in flight fails", func(t *testing.T) {
			done := make(chan error)
			go func() {
				_, _, err := readCopy(e, file, 12, 1)
				done <- err
			}()
			<-gs.started
			w.look(t, file, blocks) // in flight: cached, to a driver
			if !w.was[blockdev.BlockID{File: file, Block: 12}] {
				t.Error("a block in flight is not Cached")
			}
			gs.failWith.Store(&errBoom)
			gs.Release()
			if err := <-done; err == nil {
				t.Error("the read of a failing store succeeded")
			}
		}, 1},
		{"the cache is drained", func(t *testing.T) {
			e.Shutdown()
			e.DrainCache()
		}, 8},
	}
	e.Preload(file, 0, 8, false)
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			w.look(t, file, blocks)
			before := w.flips
			row.step(t)
			w.look(t, file, blocks)
			if got := w.flips - before; got != row.flips {
				t.Errorf("%d blocks left the cache, want %d", got, row.flips)
			}
		})
	}
}
