package lapcache

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/blockbuf"
	"repro/internal/blockdev"
	"repro/internal/core"
)

// holdStore holds every read of its gated blocks open until the test
// opens them, reports each read as it starts, and fails every read of
// one block with errBoom.
type holdStore struct {
	BackingStore
	fail    blockdev.BlockNo // -1: none
	gates   map[blockdev.BlockNo]chan struct{}
	started chan blockdev.BlockNo

	mu     sync.Mutex
	opened map[blockdev.BlockNo]bool

	seen map[blockdev.BlockNo]bool // the test goroutine's, in awaitStart
}

func newHoldStore(fail blockdev.BlockNo, held ...blockdev.BlockNo) *holdStore {
	s := &holdStore{
		BackingStore: NewMemStore(512, 0),
		fail:         fail,
		gates:        make(map[blockdev.BlockNo]chan struct{}),
		started:      make(chan blockdev.BlockNo, 256), // more reads than any test awaits
		opened:       make(map[blockdev.BlockNo]bool),
		seen:         make(map[blockdev.BlockNo]bool),
	}
	for _, b := range held {
		s.gates[b] = make(chan struct{})
	}
	return s
}

func (s *holdStore) ReadBlock(b blockdev.BlockID, buf []byte) error {
	select {
	case s.started <- b.Block:
	default: // nobody is counting this far
	}
	if g := s.gates[b.Block]; g != nil {
		<-g
	}
	if b.Block == s.fail {
		return errBoom
	}
	return s.BackingStore.ReadBlock(b, buf)
}

// open lets the reads of blocks go, now and from now on.
func (s *holdStore) open(blocks ...blockdev.BlockNo) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, b := range blocks {
		if !s.opened[b] {
			s.opened[b] = true
			close(s.gates[b])
		}
	}
}

// openAll opens every gate; register it as a cleanup after the
// engine's, so that it runs before Shutdown waits for the workers.
func (s *holdStore) openAll() {
	for b := range s.gates {
		s.open(b)
	}
}

// awaitStart returns once a read of block want has started, at once if
// one already has, and fails the test if none starts within 5 s.
func (s *holdStore) awaitStart(t *testing.T, want blockdev.BlockNo, what string) {
	t.Helper()
	timeout := time.After(5 * time.Second)
	for !s.seen[want] {
		select {
		case b := <-s.started:
			s.seen[b] = true
		case <-timeout:
			t.Fatalf("timed out waiting for %s (block %d's store read)", what, want)
		}
	}
}

// await returns what ch sends, failing the test if nothing comes
// within 5 s.
func await[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
		panic("unreachable")
	}
}

// goRead starts a read of n blocks of file f at off and sends its
// outcome: its error, or a mismatch with the fill pattern.
func goRead(e *Engine, f blockdev.FileID, off blockdev.BlockNo, n int32) <-chan error {
	done := make(chan error, 1)
	go func() {
		data, _, err := readCopy(e, f, off, n)
		if err == nil {
			err = patternErr(e, f, off, data)
		}
		done <- err
	}()
	return done
}

// patternErr reports whether data is not the fill pattern of f's blocks
// from off.
func patternErr(e *Engine, f blockdev.FileID, off blockdev.BlockNo, data []byte) error {
	bs := e.BlockSize()
	want := make([]byte, bs)
	for i := 0; i*bs < len(data); i++ {
		FillPattern(blockdev.BlockID{File: f, Block: off + blockdev.BlockNo(i)}, want)
		if !bytes.Equal(data[i*bs:(i+1)*bs], want) {
			return fmt.Errorf("block %d: wrong bytes", off+blockdev.BlockNo(i))
		}
	}
	return nil
}

// TestArrivalMissOverlapsStoreRead: a demand miss is fed to the driver
// when it arrives, so the chain's next prefetch is on the store while
// the miss still is.
func TestArrivalMissOverlapsStoreRead(t *testing.T) {
	st := newHoldStore(-1, 0)
	e := newTestEngine(t, Config{
		Alg: core.SpecLnAgrOBA, Store: st, StrictLinear: true,
		FileBlocks: map[blockdev.FileID]blockdev.BlockNo{1: 8},
	})
	t.Cleanup(st.openAll)
	done := goRead(e, 1, 0, 1)
	st.awaitStart(t, 0, "the demand read")
	st.awaitStart(t, 1, "block 1's prefetch while block 0 is held")
	st.open(0)
	if err := await(t, done, "the demand read"); err != nil {
		t.Fatal(err)
	}
}

// TestArrivalLateRestartsChain: a demand read that joins its block's
// prefetch in flight (late) restarts the chain on arrival, so the next
// block's read starts before the late one lands; the abandoned fetch
// finishes on the store, and the file's window counts one prefetch
// throughout (StrictLinear panics otherwise).
func TestArrivalLateRestartsChain(t *testing.T) {
	st := newHoldStore(-1, 2)
	e := newTestEngine(t, Config{
		Alg: core.SpecLnAgrOBA, Store: st, StrictLinear: true,
		FileBlocks: map[blockdev.FileID]blockdev.BlockNo{1: 8},
	})
	t.Cleanup(st.openAll)
	if _, _, err := readCopy(e, 1, 1, 1); err != nil {
		t.Fatalf("read of block 1: %v", err)
	}
	st.awaitStart(t, 2, "block 2's prefetch")
	done := goRead(e, 1, 2, 1)
	st.awaitStart(t, 3, "block 3's prefetch while the late block 2 is held")
	st.open(2)
	if err := await(t, done, "the late read"); err != nil {
		t.Fatal(err)
	}
	if s := e.Snapshot(); s.PrefetchLate != 1 || s.MaxFileOutstandingHW != 1 {
		t.Errorf("late=%d high-water=%d, want 1 and 1", s.PrefetchLate, s.MaxFileOutstandingHW)
	}
}

// TestArrivalCrossedSpans: readers of overlapping spans each fill their
// own claims before they wait for anyone else's, so neither order of
// the store's answers wedges them, and each gets its span's bytes. A
// reader of [0,4) claims all four blocks; one of [2,6) joins 2 and 3
// and claims 4 and 5. Then many readers of random overlapping spans
// over a cache smaller than a span, where a joined block may be gone
// again by the time its fetch lands.
func TestArrivalCrossedSpans(t *testing.T) {
	for _, claimerFirst := range []bool{true, false} {
		name := map[bool]string{true: "claimerFirst", false: "joinerFirst"}[claimerFirst]
		t.Run(name, func(t *testing.T) {
			st := newHoldStore(-1, 0, 1, 2, 3, 4, 5)
			e := newTestEngine(t, Config{Alg: core.SpecNP, Store: st, PoisonBufs: true})
			t.Cleanup(st.openAll)
			a := goRead(e, 1, 0, 4)
			st.awaitStart(t, 0, "the first reader's claims")
			b := goRead(e, 1, 2, 4)
			st.awaitStart(t, 4, "the second reader's claims")
			if claimerFirst {
				st.open(0, 1, 2, 3)
				if err := await(t, a, "the first reader, with the second's claims held"); err != nil {
					t.Error(err)
				}
				st.open(4, 5)
			} else {
				st.open(4, 5)
				st.open(0, 1, 2, 3)
				if err := await(t, a, "the first reader"); err != nil {
					t.Error(err)
				}
			}
			if err := await(t, b, "the second reader"); err != nil {
				t.Error(err)
			}
			s := e.Snapshot()
			if s.StoreReads != 6 || s.DemandMisses != 8 {
				t.Errorf("store_reads=%d demand_misses=%d, want 6 and 8", s.StoreReads, s.DemandMisses)
			}
		})
	}
	t.Run("random", func(t *testing.T) {
		e := newTestEngine(t, Config{Alg: core.SpecNP, CacheBlocks: 3, Shards: 1, PoisonBufs: true})
		const readers, reads = 4, 200
		errs := make(chan error, readers)
		for r := 0; r < readers; r++ {
			rng := rand.New(rand.NewSource(int64(r)))
			go func() {
				for i := 0; i < reads; i++ {
					off := blockdev.BlockNo(rng.Intn(5))
					data, _, err := readCopy(e, 1, off, 4)
					if err == nil {
						err = patternErr(e, 1, off, data)
					}
					if err != nil {
						errs <- err
						return
					}
				}
				errs <- nil
			}()
		}
		for r := 0; r < readers; r++ {
			if err := await(t, errs, "the readers of crossed spans"); err != nil {
				t.Error(err)
			}
		}
	})
}

// TestArrivalSpanStoreError: a store error on one claimed block of a
// span fails the reader and wakes its joiner with the error; the
// reader still fills its other claims, so nothing stays registered in
// flight, and no buffer leaks.
func TestArrivalSpanStoreError(t *testing.T) {
	st := newHoldStore(1, 1)
	e := newTestEngine(t, Config{Alg: core.SpecNP, Store: st, PoisonBufs: true})
	t.Cleanup(st.openAll)
	reader := goRead(e, 1, 0, 4)
	st.awaitStart(t, 1, "the reader's fill of block 1")
	// The joiner joins block 1 and block 2, both the reader's claims;
	// it waits for 1 and lets 2 go unwaited once 1 has failed.
	joiner := goRead(e, 1, 1, 2)
	waitFor(t, "the joiner to join blocks 1 and 2", func() bool {
		e.flightMu.Lock()
		defer e.flightMu.Unlock()
		for _, b := range []blockdev.BlockNo{1, 2} {
			if fo := e.inflight[blockdev.BlockID{File: 1, Block: b}]; fo == nil || fo.refs.Load() != 2 {
				return false
			}
		}
		return true
	})
	st.open(1)
	for _, ch := range []<-chan error{reader, joiner} {
		if err := await(t, ch, "a read of the failed block"); !errors.Is(err, errBoom) {
			t.Errorf("err=%v, want %v", err, errBoom)
		}
	}
	e.flightMu.Lock()
	n := len(e.inflight)
	e.flightMu.Unlock()
	if n != 0 {
		t.Errorf("%d blocks still registered in flight", n)
	}
	if s := e.Snapshot(); s.StoreReads != 3 || s.CachedBlocks != 3 {
		t.Errorf("store_reads=%d cached=%d, want 3 and 3 (blocks 0, 2 and 3)", s.StoreReads, s.CachedBlocks)
	}
	e.Shutdown()
	e.DrainCache()
	if live := e.BufLive(); live != 0 {
		t.Errorf("%d buffers still live after a failed span", live)
	}
}

// TestArrivalFeedsEveryRead: every valid read advances its file's
// driver exactly once — a span once, a read whose store read fails
// too; a read the engine refuses not at all.
func TestArrivalFeedsEveryRead(t *testing.T) {
	st := newHoldStore(5)
	e := newTestEngine(t, Config{
		Alg: core.SpecLnAgrOBA, Store: st,
		FileBlocks: map[blockdev.FileID]blockdev.BlockNo{1: 16},
	})
	reads := []struct {
		off  blockdev.BlockNo
		n    int32
		fail bool
	}{{0, 1, false}, {1, 1, false}, {2, 2, false}, {5, 1, true}, {4, 1, false}}
	for _, r := range reads {
		if _, _, err := readCopy(e, 1, r.off, r.n); (err != nil) != r.fail {
			t.Fatalf("read %d:+%d: err=%v", r.off, r.n, err)
		}
	}
	if _, _, err := readCopy(e, 1, 0, 0); err == nil {
		t.Fatal("an empty read was served")
	}
	fl := e.fileState(1)
	fl.mu.Lock()
	tick := fl.tick
	fl.mu.Unlock()
	if tick != core.Tick(len(reads)) {
		t.Errorf("driver fed %d times over %d valid reads", tick, len(reads))
	}
}

// BenchmarkStoreBoundScan is one client that does not think between
// reads, over a store that takes 1 ms a block and a file 16 times the
// cache: the shape of seq_prefetch's training replay. It reads runs at
// random starts, one of 48 sequential blocks and then one of 12 at each
// stride from 2 to 8, closing the file after each run, so each run
// starts its chain afresh. ns/op is the time per read; how much of the
// store's latency the prefetcher hides decides it.
func BenchmarkStoreBoundScan(b *testing.B) {
	const blocks = 1 << 14
	e, err := New(Config{
		Alg:         core.SpecLnAgrISPPM3,
		BlockSize:   8192,
		CacheBlocks: blocks / 16,
		Store:       NewMemStore(8192, time.Millisecond),
		FileBlocks:  map[blockdev.FileID]blockdev.BlockNo{1: blocks},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Shutdown()
	rng := rand.New(rand.NewSource(1))
	var bufs []*blockbuf.Buf
	var off, stride blockdev.BlockNo
	left := 0 // reads left in the current run
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if left == 0 {
			e.closeFile(1)
			if stride = stride%8 + 1; stride == 1 {
				left = 48
			} else {
				left = 12
			}
			off = blockdev.BlockNo(rng.Intn(blocks - int(stride)*left))
		}
		if bufs, _, err = e.ReadInto(bufs[:0], 1, off, 1); err != nil {
			b.Fatal(err)
		}
		bufs[0].Release()
		off += stride
		left--
	}
	b.StopTimer()
	s := e.Snapshot()
	b.ReportMetric(float64(s.DemandMisses)/float64(b.N), "misses/read")
	b.ReportMetric(float64(s.PrefetchLate)/float64(b.N), "late/read")
}
