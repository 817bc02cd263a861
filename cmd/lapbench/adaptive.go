package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/blockbuf"
	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/lapcache"
)

// runAdaptive is the adaptive-vs-linear A/B: the same live engine, the
// same backing store and the same request stream, run once under the
// paper's strict linear throttle (Ln_Agr_IS_PPM:1) and once under the
// feedback-controlled AdaptiveFDP policy (Ad_Agr_IS_PPM:1). Two
// workloads bracket the trade-off the controller navigates:
//
//   - deepseq: pause-free sequential bursts against a slow store and a
//     roomy cache. One outstanding prefetch caps throughput at one
//     block per store round-trip; the controller detects the timely
//     starvation (high accuracy, high late rate), widens toward its
//     cap, and pipelines the stream. Adaptive should win hit ratio and
//     the latency tail here.
//
//   - coldtail: the same sequential streams squeezed through a cache
//     smaller than the controller's widest window. Deep speculation
//     self-evicts — prefetched blocks are pushed out by later
//     prefetches before the reader arrives — so every widened phase
//     pays wasted fetches and re-misses until the waste feedback
//     clamps the window back to 1. Strict linear never enters that
//     cycle and should win here, which is the paper's argument for the
//     linear throttle on small caches.
func runAdaptive(seed uint64) error {
	workloads := []abWorkload{deepSeqWorkload(seed), coldTailWorkload(seed)}
	algs := []core.AlgSpec{core.SpecLnAgrISPPM1, core.SpecAdAgrISPPM1}

	var rows []abResult
	for _, wl := range workloads {
		for _, alg := range algs {
			res, err := runABConfig(wl, alg)
			if err != nil {
				return fmt.Errorf("adaptive A/B %s/%s: %w", wl.name, alg.Name(), err)
			}
			rows = append(rows, res)
		}
	}

	fmt.Printf("adaptive A/B: %s vs %s, same engine, same store, same stream\n\n",
		algs[0].Name(), algs[1].Name())
	fmt.Printf("%-9s %-16s %8s %6s %10s %10s %7s %7s %7s %8s %8s\n",
		"workload", "alg", "reads", "hit-%", "p50", "p99", "deg", "widen", "clamp", "wasted", "elapsed")
	for _, r := range rows {
		fmt.Printf("%-9s %-16s %8d %6.1f %10v %10v %7d %7d %7d %8d %8v\n",
			r.workload, r.alg, r.reads, 100*r.hitRatio, r.p50.Round(time.Microsecond),
			r.p99.Round(time.Microsecond), r.maxDegree, r.widens, r.clamps, r.wasted,
			r.elapsed.Round(time.Millisecond))
	}
	fmt.Println()

	// The headline checks, mirrored by TestAdaptiveAB: each policy must
	// win its home workload, and the strict run must stay exactly
	// linear. (Raw hit-% undercounts the widened pipeline — a read that
	// waits even microseconds for a landing prefetch books as a miss —
	// so deepseq's win is judged on the latency distribution.)
	deep := pick(rows, "deepseq")
	cold := pick(rows, "coldtail")
	fmt.Printf("deepseq : adaptive p50 %v vs linear %v, p99 %v vs %v, run %v vs %v\n",
		deep[1].p50.Round(time.Microsecond), deep[0].p50.Round(time.Microsecond),
		deep[1].p99.Round(time.Microsecond), deep[0].p99.Round(time.Microsecond),
		deep[1].elapsed.Round(time.Millisecond), deep[0].elapsed.Round(time.Millisecond))
	fmt.Printf("coldtail: linear hit %.1f%% vs adaptive %.1f%%, wasted %d vs %d\n",
		100*cold[0].hitRatio, 100*cold[1].hitRatio, cold[0].wasted, cold[1].wasted)

	return checkAB(rows)
}

// checkAB enforces the A/B's headline claims: each policy wins its
// home workload. (The per-config cap and strict-linearity checks
// already ran inside runABConfig.)
func checkAB(rows []abResult) error {
	deep := pick(rows, "deepseq")
	cold := pick(rows, "coldtail")
	if !(deep[1].p50 < deep[0].p50 || deep[1].p99 < deep[0].p99 || deep[1].hitRatio > deep[0].hitRatio) {
		return fmt.Errorf("adaptive did not win deepseq (p50 %v vs %v, p99 %v vs %v)",
			deep[1].p50, deep[0].p50, deep[1].p99, deep[0].p99)
	}
	// Coldtail's hit ratio is a per-block photo finish (the prefetch
	// and the next demand read both take one 200µs store round trip),
	// so on a heavily loaded box it can invert. The waste gap cannot:
	// a widened chain in a 6-block cache evicts its own unread
	// prefetches, so adaptive's wasted count dwarfs strict linear's
	// regardless of scheduling.
	if !(cold[0].hitRatio > cold[1].hitRatio || cold[0].p99 < cold[1].p99 || cold[0].wasted < cold[1].wasted) {
		return fmt.Errorf("linear did not win coldtail (hit %.3f vs %.3f, p99 %v vs %v, wasted %d vs %d)",
			cold[0].hitRatio, cold[1].hitRatio, cold[0].p99, cold[1].p99, cold[0].wasted, cold[1].wasted)
	}
	return nil
}

// abWorkload is one side of the A/B: an engine shape plus a
// deterministic client. run issues every read and returns per-read
// wall-clock latencies.
type abWorkload struct {
	name        string
	cacheBlocks int
	storeLat    time.Duration
	workers     int
	queueLen    int
	fileBlocks  map[blockdev.FileID]blockdev.BlockNo
	run         func(e *lapcache.Engine) ([]time.Duration, error)
}

// abResult is one (workload, alg) cell.
type abResult struct {
	workload  string
	alg       string
	reads     int
	hitRatio  float64
	p50, p99  time.Duration
	elapsed   time.Duration
	maxDegree int
	widens    uint64
	clamps    uint64
	wasted    uint64
	maxHW     int
	linViol   uint64
}

const abBlockSize = 512

// deepSeqWorkload: 8 files of 768 blocks each, read back-to-back one
// block at a time with no think time, against a 200µs store and a
// cache big enough that speculation never self-evicts. The only
// limiter is the outstanding-prefetch window.
func deepSeqWorkload(seed uint64) abWorkload {
	const (
		files     = 8
		blocks    = 768
		fileBase  = 100
		storeLat  = 200 * time.Microsecond
		cacheBlks = 4096
	)
	ft := make(map[blockdev.FileID]blockdev.BlockNo, files)
	for i := 0; i < files; i++ {
		ft[blockdev.FileID(fileBase+i)] = blocks
	}
	return abWorkload{
		name:        "deepseq",
		cacheBlocks: cacheBlks,
		storeLat:    storeLat,
		workers:     16,
		queueLen:    256,
		fileBlocks:  ft,
		run: func(e *lapcache.Engine) ([]time.Duration, error) {
			lats := make([]time.Duration, 0, files*blocks)
			var bufs []*blockbuf.Buf
			order := filePerm(files, seed)
			for _, i := range order {
				f := blockdev.FileID(fileBase + i)
				for b := blockdev.BlockNo(0); b < blocks; b++ {
					t0 := time.Now()
					var err error
					if bufs, _, err = e.ReadInto(bufs[:0], f, b, 1); err != nil {
						return nil, err
					}
					lats = append(lats, time.Since(t0))
					bufs[0].Release()
				}
				e.CloseFile(f)
			}
			return lats, nil
		},
	}
}

// coldTailWorkload: the same pause-free sequential streams, but the
// cache holds only 6 blocks — smaller than the adaptive controller's
// widest window. A widened chain evicts its own not-yet-read
// prefetches (and the stream's recent blocks), so aggression converts
// timely hits into wasted fetches plus re-misses; strict linear's
// single outstanding block always fits.
func coldTailWorkload(seed uint64) abWorkload {
	const (
		files     = 4
		blocks    = 1024
		fileBase  = 200
		storeLat  = 200 * time.Microsecond
		cacheBlks = 6
	)
	ft := make(map[blockdev.FileID]blockdev.BlockNo, files)
	for i := 0; i < files; i++ {
		ft[blockdev.FileID(fileBase+i)] = blocks
	}
	return abWorkload{
		name:        "coldtail",
		cacheBlocks: cacheBlks,
		storeLat:    storeLat,
		workers:     16,
		queueLen:    256,
		fileBlocks:  ft,
		run: func(e *lapcache.Engine) ([]time.Duration, error) {
			lats := make([]time.Duration, 0, files*blocks)
			var bufs []*blockbuf.Buf
			order := filePerm(files, seed)
			for _, i := range order {
				f := blockdev.FileID(fileBase + i)
				for b := blockdev.BlockNo(0); b < blocks; b++ {
					t0 := time.Now()
					var err error
					if bufs, _, err = e.ReadInto(bufs[:0], f, b, 1); err != nil {
						return nil, err
					}
					lats = append(lats, time.Since(t0))
					bufs[0].Release()
				}
				e.CloseFile(f)
			}
			return lats, nil
		},
	}
}

// runABConfig boots one engine for (workload, alg), replays the
// client, and collapses the run into an abResult.
func runABConfig(wl abWorkload, alg core.AlgSpec) (abResult, error) {
	e, err := lapcache.New(lapcache.Config{
		Alg:         alg,
		BlockSize:   abBlockSize,
		CacheBlocks: wl.cacheBlocks,
		Workers:     wl.workers,
		QueueLen:    wl.queueLen,
		FileBlocks:  wl.fileBlocks,
		Store:       lapcache.NewMemStore(abBlockSize, wl.storeLat),
	})
	if err != nil {
		return abResult{}, err
	}
	defer e.Shutdown()

	t0 := time.Now()
	lats, err := wl.run(e)
	if err != nil {
		return abResult{}, err
	}
	elapsed := time.Since(t0)

	s := e.Snapshot()
	res := abResult{
		workload: wl.name,
		alg:      alg.Name(),
		reads:    len(lats),
		elapsed:  elapsed,
		wasted:   s.PrefetchWasted,
		maxHW:    s.MaxFileOutstandingHW,
		linViol:  s.LinearViolations,
	}
	if len(lats) > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		res.p50 = lats[len(lats)/2]
		res.p99 = lats[len(lats)*99/100]
	}
	if total := s.DemandHits + s.DemandMisses; total > 0 {
		res.hitRatio = float64(s.DemandHits) / float64(total)
	}
	if agg, adaptive := e.DegreeStats(); adaptive {
		res.maxDegree = agg.Degree
		res.widens = agg.Widens
		res.clamps = agg.Clamps
	} else {
		res.maxDegree = alg.DegreeCap()
	}

	// Both sides ride the same ledger the cluster audits: the high-water
	// must respect the policy cap, and the strict side must be exactly
	// linear.
	if cap := alg.DegreeCap(); cap > 0 && res.maxHW > cap {
		return res, fmt.Errorf("per-file high-water %d exceeds degree cap %d", res.maxHW, cap)
	}
	if !alg.Adaptive && res.linViol > 0 {
		return res, fmt.Errorf("%d linear violations under strict policy", res.linViol)
	}
	return res, nil
}

// filePerm is a seed-keyed permutation of [0,n): the A/B varies file
// order across seeds without pulling in math/rand.
func filePerm(n int, seed uint64) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	x := seed*6364136223846793005 + 1442695040888963407
	for i := n - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// pick returns the workload's [linear, adaptive] pair in that order.
func pick(rows []abResult, workload string) [2]abResult {
	var out [2]abResult
	for _, r := range rows {
		if r.workload != workload {
			continue
		}
		if len(r.alg) >= 2 && r.alg[:2] == "Ad" {
			out[1] = r
		} else {
			out[0] = r
		}
	}
	return out
}
