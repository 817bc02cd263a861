package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/lapcache"
	"repro/internal/lapclient"
)

// blockSize and liveAlg are lapcached's defaults: every live workload
// runs the engine a default deployment runs.
const blockSize = 8192

var liveAlg = core.SpecLnAgrISPPM3

// A run sets the system up setups times and measures a number of
// rounds on each instance (liveWorkload.rounds); every metric is the
// median over the set-ups or the rounds. A workload that waits for the
// processor (liveWorkload.cpuBound: hit_fanin, coop_mixed) runs many
// short rounds and follows each with a round of the reference load
// (refload.go), half as long; the round's rates and times are then
// stated as the calibration machine would have produced them, given how
// fast the reference ran here (README, "Host time"). Its set-ups are
// weighed the same way, by a tenth of a second of reference before and
// after. A workload that waits for timers (seq_prefetch) is reported as
// measured.
const (
	setups      = 3
	shortRounds = 26 // per set-up, of a processor-bound workload
	setupRefDur = 100 * time.Millisecond
)

// liveEnv is one booted instance of a live workload.
type liveEnv struct {
	engines []*lapcache.Engine
	conns   []*lapclient.Conn
	// fileID maps the op streams' file indexes to file IDs.
	fileID []blockdev.FileID
	// stop closes servers, cluster nodes and engines (conns are closed
	// before it runs).
	stop func()
}

// teardown stops everything the env started and checks that no block
// buffer is still held once the caches are drained.
func (e *liveEnv) teardown() error {
	for _, c := range e.conns {
		c.Close() //nolint:errcheck // read-only connection
	}
	e.stop()
	for i, eng := range e.engines {
		eng.Shutdown()
		eng.DrainCache()
		if live := eng.BufLive(); live != 0 {
			return fmt.Errorf("engine %d: %d block buffers still live after Shutdown+DrainCache", i, live)
		}
	}
	return nil
}

// counters are the engine counters a traced run reports, in the order
// of counterMetric.
type counters [len(counterMetric)]uint64

// counterMetric names the per-layer metric each counter is reported as.
var counterMetric = [...]string{
	"core.prefetch_issued", "core.prefetch_timely", "core.prefetch_late", "core.prefetch_wasted",
	"lapcache.demand_hits", "lapcache.demand_misses", "lapcache.store_reads", "lapcache.store_writes",
	"lapcache.prefetch_dropped", "lapcache.prefetch_dup_skipped",
	"blockbuf.allocs", "blockbuf.recycles",
	"cluster.remote_reads", "cluster.remote_hits", "cluster.remote_fallbacks",
	"cluster.forwarded_writes", "cluster.peer_reads_served",
}

func countersOf(s lapcache.Snapshot) counters {
	return counters{
		s.PrefetchIssued, s.PrefetchTimely, s.PrefetchLate, s.PrefetchWasted,
		s.DemandHits, s.DemandMisses, s.StoreReads, s.StoreWrites,
		s.PrefetchDropped, s.PrefetchDupSkipped,
		s.BufAllocs, s.BufRecycles,
		s.RemoteReads, s.RemoteHits, s.RemoteFallbacks,
		s.ForwardedWrites, s.PeerReadsServed,
	}
}

// snapshot sums the counters of every engine of the env, and returns
// the ledger's verdicts: linear violations, and the most prefetches any
// file ever had outstanding.
func (e *liveEnv) snapshot() (sum counters, violations uint64, outstandingHW int) {
	for _, eng := range e.engines {
		s := eng.Snapshot()
		for i, v := range countersOf(s) {
			sum[i] += v
		}
		violations += s.LinearViolations
		outstandingHW = max(outstandingHW, s.MaxFileOutstandingHW)
	}
	return sum, violations, outstandingHW
}

// fillBlock writes lapcache.FillPattern's content for b into buf by
// doubling copies; the byte-at-a-time original would be a tenth of a
// write's cost on the client side (TestFillBlockMatchesFillPattern).
func fillBlock(b blockdev.BlockID, buf []byte) {
	binary.LittleEndian.PutUint32(buf, uint32(b.File))
	binary.LittleEndian.PutUint32(buf[4:], uint32(b.Block))
	for n := 8; n < len(buf); n *= 2 {
		copy(buf[n:], buf[:n])
	}
}

// reader is one client goroutine: a connection (possibly shared), an
// operation stream, and preallocated buffers for everything the timed
// loop touches.
type reader struct {
	conn   *lapclient.Conn
	src    opSource
	think  time.Duration // slept before every read or write
	fileID []blockdev.FileID

	dsts [][]byte // one block, the read destination
	want []byte   // one block: expected content / write payload

	rlat, wlat []uint32  // latencies of this round, ns
	spans      *spanRing // nil unless this round is traced

	// Counters of the current round.
	reads, writes, hits, failed int64
	dur                         time.Duration
	firstErr                    error
}

func newReader(conn *lapclient.Conn, src opSource, think time.Duration, fileID []blockdev.FileID) *reader {
	return &reader{conn: conn, src: src, think: think, fileID: fileID,
		dsts: [][]byte{make([]byte, blockSize)}, want: make([]byte, blockSize)}
}

// fail counts one failed operation and keeps the first cause.
func (r *reader) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// do issues one operation and returns its latency; ok is false when
// the call failed or the payload did not verify.
func (r *reader) do(o op) (d time.Duration, hit, ok bool) {
	f := r.fileID[o.file]
	b := blockdev.BlockID{File: f, Block: blockdev.BlockNo(o.block)}
	switch o.kind {
	case opWrite:
		fillBlock(b, r.want)
		t0 := time.Now()
		err := r.conn.Write(f, b.Block, 1, r.want)
		d = time.Since(t0)
		if err != nil {
			r.fail(fmt.Errorf("write %v: %w", b, err))
			return d, false, false
		}
		return d, false, true
	case opClose:
		if err := r.conn.CloseFile(f); err != nil {
			r.fail(fmt.Errorf("close file %d: %w", f, err))
		}
		return 0, false, true
	}
	dst := r.dsts[0]
	// No block of a file ID >= 1 starts with eight zero bytes, so a
	// read that leaves the destination untouched cannot verify.
	binary.LittleEndian.PutUint64(dst, 0)
	t0 := time.Now()
	hit, err := r.conn.ReadInto(f, b.Block, 1, r.dsts)
	d = time.Since(t0)
	if err != nil {
		r.fail(fmt.Errorf("read %v: %w", b, err))
		return d, false, false
	}
	// Length is enforced by ReadInto (it fills exactly dsts); the first
	// 64 bytes are checked on every read, the whole block on 1 in 64.
	stamp := uint64(uint32(b.File)) | uint64(uint32(b.Block))<<32
	for i := 0; i < 64; i += 8 {
		if binary.LittleEndian.Uint64(dst[i:]) != stamp {
			r.fail(fmt.Errorf("read %v: payload does not match the fill pattern at byte %d", b, i))
			return d, hit, false
		}
	}
	if r.reads&63 == 0 {
		fillBlock(b, r.want)
		if !bytes.Equal(dst, r.want) {
			r.fail(fmt.Errorf("read %v: block does not match the fill pattern", b))
			return d, hit, false
		}
	}
	return d, hit, true
}

// run issues operations for about roundDur, or exactly count reads and
// writes when count > 0 (warm-up). A timed run ends only after the
// last operation of a cycle, at the whole number of cycles nearest to
// roundDur (for one-operation cycles that is simply roundDur).
func (r *reader) run(roundDur time.Duration, count int64) {
	r.reads, r.writes, r.hits, r.failed = 0, 0, 0, 0
	r.rlat, r.wlat = r.rlat[:0], r.wlat[:0]
	var cycles int64
	start := time.Now()
	for {
		o := r.src.next()
		if r.think > 0 && o.kind != opClose {
			time.Sleep(r.think)
		}
		t0 := time.Now()
		d, hit, ok := r.do(o)
		if o.kind != opClose {
			lat := &r.rlat
			if o.kind == opWrite {
				r.writes++
				lat = &r.wlat
			} else {
				r.reads++
				if hit {
					r.hits++
				}
			}
			if ok && len(*lat) < cap(*lat) {
				*lat = append(*lat, uint32(min(d, 1<<32-1)))
			}
			if r.spans != nil {
				r.spans.record(spanOp[o.kind], t0, d, r.reads+r.writes)
			}
		}
		if count > 0 {
			if r.reads+r.writes >= count {
				break
			}
			continue
		}
		if o.last {
			cycles++
			el := time.Since(start)
			if el+el/time.Duration(2*cycles) >= roundDur || len(r.rlat) == cap(r.rlat) {
				break
			}
		}
	}
	r.dur = time.Since(start)
}

// roundResult is what one measured round yields.
type roundResult struct {
	opsPerS, readMeanUs, readP90Us, memPct float64
	readP50Us, readP99Us                   float64
	writeMeanUs, writeP90Us                float64
	reads, writes, failed                  int64
}

// latBufs holds the run's preallocated sample buffers: one pair per
// reader plus the merged buffers percentiles are taken from.
type latBufs struct{ reads, writes []uint32 }

// maxOpsPerReaderPerS sizes the sample buffers: no synchronous client
// completes more operations than this, so the buffers never fill (a
// reader whose buffer does fill ends its round early).
const maxOpsPerReaderPerS = 100_000

func newLatBufs(readers []*reader, roundDur time.Duration) *latBufs {
	per := int(roundDur.Seconds()*1.5*maxOpsPerReaderPerS) + 4096
	for _, r := range readers {
		r.rlat = make([]uint32, 0, per)
		r.wlat = make([]uint32, 0, per)
	}
	return &latBufs{reads: make([]uint32, 0, per*len(readers)), writes: make([]uint32, 0, per*len(readers))}
}

// runRound runs every reader concurrently for one round and reduces
// their samples. Samples are sorted after the round; the timed loop
// neither allocates nor buckets.
func runRound(readers []*reader, roundDur time.Duration, count int64, bufs *latBufs) roundResult {
	var wg sync.WaitGroup
	for _, r := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.run(roundDur, count)
		}()
	}
	wg.Wait()
	var res roundResult
	var hits int64
	bufs.reads, bufs.writes = bufs.reads[:0], bufs.writes[:0]
	for _, r := range readers {
		res.reads += r.reads
		res.writes += r.writes
		res.failed += r.failed
		hits += r.hits
		// Rates are summed per reader over each reader's own active
		// time, so a reader that finishes its last cycle early does not
		// count as idle capacity.
		res.opsPerS += float64(r.reads+r.writes-r.failed) / r.dur.Seconds()
		bufs.reads = append(bufs.reads, r.rlat...)
		bufs.writes = append(bufs.writes, r.wlat...)
	}
	slices.Sort(bufs.reads)
	slices.Sort(bufs.writes)
	res.readMeanUs = mean(bufs.reads) / 1e3
	res.readP50Us = float64(percentile(bufs.reads, 50)) / 1e3
	res.readP90Us = float64(percentile(bufs.reads, 90)) / 1e3
	res.readP99Us = float64(percentile(bufs.reads, 99)) / 1e3
	res.writeMeanUs = mean(bufs.writes) / 1e3
	res.writeP90Us = float64(percentile(bufs.writes, 90)) / 1e3
	if res.reads > 0 {
		res.memPct = float64(hits) / float64(res.reads) * 100
	}
	return res
}

// firstError returns the first failure any reader saw.
func firstError(readers []*reader) error {
	for _, r := range readers {
		if r.firstErr != nil {
			return r.firstErr
		}
	}
	return nil
}

// liveWorkload is a live workload: setup builds inputs from the seed,
// boots the system, preloads it and runs the fixed-count warm-up.
type liveWorkload struct {
	name  string
	setup func(seed uint64) (*liveEnv, []*reader, error)
	// rounds is the number of measured rounds per set-up, and cpuBound
	// whether the workload waits for the processor, so that its timings
	// are weighed by the reference load's.
	rounds   int
	cpuBound bool
	// ladder is the stream the traced run replays tier by tier, and
	// allCached whether the workload's reads find their blocks cached
	// (which decides how far a driver step walks).
	ladder    func(seed uint64) ladder
	allCached bool
}

// runOutcome is what a run hands to main.
type runOutcome struct {
	metrics   values
	attempted int64
	failed    int64
	problems  []string // failed checks; empty means correct
}

func (o *runOutcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// column extracts one value per round.
func column(rr []roundResult, f func(roundResult) float64) []float64 {
	v := make([]float64, len(rr))
	for i, r := range rr {
		v[i] = f(r)
	}
	return v
}

// reduce sums a run's rounds up in one roundResult, every value the
// rounds' median (its counts are not set).
func reduce(rr []roundResult) roundResult {
	col := func(f func(roundResult) float64) float64 { return median(column(rr, f)) }
	return roundResult{
		opsPerS:     col(func(r roundResult) float64 { return r.opsPerS }),
		readMeanUs:  col(func(r roundResult) float64 { return r.readMeanUs }),
		readP50Us:   col(func(r roundResult) float64 { return r.readP50Us }),
		readP90Us:   col(func(r roundResult) float64 { return r.readP90Us }),
		readP99Us:   col(func(r roundResult) float64 { return r.readP99Us }),
		writeMeanUs: col(func(r roundResult) float64 { return r.writeMeanUs }),
		writeP90Us:  col(func(r roundResult) float64 { return r.writeP90Us }),
		memPct:      col(func(r roundResult) float64 { return r.memPct }),
	}
}

// atSpeed states a round measured on a host running at the given speed
// (1 is the calibration machine's) as that machine would have produced
// it: rates divided by the speed, times multiplied.
func (r roundResult) atSpeed(speed float64) roundResult {
	r.opsPerS /= speed
	r.readMeanUs *= speed
	r.readP50Us *= speed
	r.readP90Us *= speed
	r.readP99Us *= speed
	r.writeMeanUs *= speed
	r.writeP90Us *= speed
	return r
}

// runLive runs one live workload: for each set-up, the timed set-up
// itself, its rounds, the checks, the tear-down. With a tracer every
// second round records a span per call (both kinds of round on every
// instance: instances differ by more than tracing costs), and the
// per-layer metrics are reported.
func runLive(w liveWorkload, seed uint64, seconds float64, tr *tracer) runOutcome {
	out := runOutcome{metrics: values{}}
	roundDur := time.Duration(seconds / float64(setups*w.rounds) * float64(time.Second))
	// A processor-bound workload leaves a third of every round's share
	// of the time to the reference load.
	var refDur time.Duration
	if w.cpuBound {
		refDur = roundDur / 3
		roundDur -= refDur
	}
	var (
		setupSec []float64
		rr       []roundResult
		counts   counters
		maxHW    int
	)
	for i := 0; i < setups; i++ {
		// ref stays nil for a timer-bound workload, and a nil reference
		// says the host runs at speed 1.
		var ref *refLoad
		if w.cpuBound {
			var err error
			if ref, err = startRefLoad(); err != nil {
				out.problem("reference load: %v", err)
				out.attempted, out.failed = max(out.attempted, 1), out.failed+1
				return out
			}
		}
		speed := ref.speed(setupRefDur)
		t0 := time.Now()
		env, readers, err := w.setup(seed)
		if err != nil {
			ref.stop() //nolint:errcheck // already failing
			out.problem("set-up: %v", err)
			out.attempted, out.failed = max(out.attempted, 1), out.failed+1
			return out
		}
		raw := time.Since(t0).Seconds()
		speed = (speed + ref.speed(setupRefDur)) / 2
		setupSec = append(setupSec, raw*speed)
		logf("set-up %d: %.3f s at host speed %.3f: %.3f s", i+1, raw, speed, setupSec[i])
		if err := firstError(readers); err != nil {
			out.problem("warm-up: %v", err)
		}

		bufs := newLatBufs(readers, roundDur)
		before, _, _ := env.snapshot()
		// A traced run's readers record a span per call in every second
		// round; the file keeps each reader's last ringSpans.
		rings := make([]*spanRing, len(readers))
		for k := 0; k < w.rounds; k++ {
			for g, r := range readers {
				r.spans = nil
				if tr != nil && k%2 == 1 {
					if rings[g] == nil {
						rings[g] = tr.ring()
					}
					r.spans = rings[g]
				}
			}
			res := runRound(readers, roundDur, 0, bufs)
			speed := ref.speed(refDur)
			logf("set-up %d round %d: ops_per_s %.1f read_mean_us %.2f read_p90_us %.2f mem_served_pct %.3f (reads %d writes %d failed %d) at host speed %.3f",
				i+1, k+1, res.opsPerS, res.readMeanUs, res.readP90Us, res.memPct, res.reads, res.writes, res.failed, speed)
			rr = append(rr, res.atSpeed(speed))
			out.attempted += res.reads + res.writes
			out.failed += res.failed
		}
		if err := ref.stop(); err != nil {
			out.problem("reference load: %v", err)
		}
		for _, ring := range rings {
			tr.keep(ring)
		}
		after, violations, hw := env.snapshot()
		for c := range counts {
			counts[c] += after[c] - before[c]
		}
		maxHW = max(maxHW, hw)

		// The checks of -check, made on every instance of every run.
		if err := firstError(readers); err != nil {
			out.problem("first failed operation: %v", err)
		}
		if violations != 0 {
			out.problem("%d linear violations", violations)
		}
		if hw > 1 {
			out.problem("a file had %d prefetches outstanding, linear limit is 1", hw)
		}
		if n := after[slices.Index(counterMetric[:], "cluster.remote_fallbacks")]; n != 0 {
			out.problem("%d remote fallbacks", n)
		}
		if err := env.teardown(); err != nil {
			out.problem("%v", err)
		}
		runtime.GC() // this instance's caches, outside the next set-up's timing
	}
	if out.failed != 0 {
		out.problem("%d of %d operations failed or did not verify", out.failed, out.attempted)
	}

	ops := column(rr, func(r roundResult) float64 { return r.opsPerS })
	sum := reduce(rr)
	m := out.metrics
	m["setup_s"] = median(setupSec)
	m["ok_ops_pct"] = float64(out.attempted-out.failed) / float64(max(out.attempted, 1)) * 100
	m["ops_per_s"] = sum.opsPerS
	m["read_mean_us"] = sum.readMeanUs
	m["read_p90_us"] = sum.readP90Us
	m["mem_served_pct"] = sum.memPct

	if tr != nil {
		var reads, writes int64
		for _, r := range rr {
			reads += r.reads
			writes += r.writes
		}
		for c, name := range counterMetric {
			m[name] = float64(counts[c])
		}
		if issued := m["core.prefetch_issued"]; issued > 0 {
			m["core.prefetch_accuracy_pct"] = m["core.prefetch_timely"] / issued * 100
		}
		m["core.file_outstanding_hw"] = float64(maxHW)
		m["cluster.remote_share_pct"] = m["cluster.remote_reads"] / float64(max(reads, 1)) * 100
		m["lapclient.read_p50_us"] = sum.readP50Us
		m["lapclient.read_p99_us"] = sum.readP99Us
		if writes > 0 {
			m["lapclient.write_mean_us"] = sum.writeMeanUs
			m["lapclient.write_p90_us"] = sum.writeP90Us
		}
		m["bench.round_spread_pct"] = spreadPct(ops)
		// Rounds are traced in turn (every instance has an even number).
		var plain, traced []roundResult
		for k, r := range rr {
			if k%2 == 0 {
				plain = append(plain, r)
			} else {
				traced = append(traced, r)
			}
		}
		m["bench.tracing_overhead_pct"] = (reduce(plain).opsPerS - reduce(traced).opsPerS) / reduce(plain).opsPerS * 100
	}
	return out
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}
