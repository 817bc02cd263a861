package main

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/workload"
)

// simWorkers is fixed, not GOMAXPROCS: the sweep is a fixed amount of
// work dealt to a fixed number of workers.
const simWorkers = 2

// A sim_sweep run sets up simSetups times (each set-up generates the
// traces and runs every cell once), then repeats the sweep until
// -seconds have passed, simMinSweeps times at least.
const (
	simSetups    = 3
	simMinSweeps = 3
)

// simProbeCacheMB selects the cells the live workloads' traced runs
// time (simProbe).
const simProbeCacheMB = 4

// simScale is the repository's small scale (8 nodes, the paper's
// machines otherwise) with shorter traces: a quarter of CHARISMA's
// applications, half its phases, 60 of Sprite's 150 sessions a client.
// That makes a cell 10-120 ms of host time instead of 30-600 ms, and a
// sweep of the 84 cells about 2 s, so that a run times every cell nine
// or ten times, each time next to a unit of the reference. On this
// shared host the speed of anything that touches memory changes by a
// quarter within seconds: a cell and the unit after it see the same
// speed only if both are short, and a median needs its nine values
// (README, "Host time").
func simScale() experiment.Scale {
	s := experiment.SmallScale()
	s.CacheSizesMB = []int{1, 4, 16}
	s.Charisma.Apps = 2
	s.Charisma.Phases = 4
	s.Sprite.SessionsPerClient = 60
	return s
}

// simJob is one cell of the sweep on its (already generated) trace.
type simJob struct {
	tr   *workload.Trace
	mach machine.Config
	cell experiment.Cell
}

// group names the job's (file system, workload) pair as the per-layer
// metrics do.
func (j simJob) group() string {
	fs, wl := "pafs", "charisma"
	if j.cell.FS == experiment.XFS {
		fs = "xfs"
	}
	if j.cell.Workload == experiment.Sprite {
		wl = "sprite"
	}
	return fs + "_" + wl
}

// simInputs is everything a sim_sweep run is made of.
type simInputs struct {
	warm  float64
	jobs  []simJob
	genMs float64 // GenerateCharisma + GenerateSprite, host ms
}

// placeTrace returns tr with its processes moved to other nodes, its
// files renumbered and every think time stretched or shrunk by up to
// 1 %, all chosen by r. The generators' own seeds decide file sizes,
// record sizes and access patterns from a handful of draws, which
// moves the simulated read time by a factor of two from seed to seed;
// placement keeps the workload's statistics and still gives every seed
// its own trace.
func placeTrace(tr *workload.Trace, nodes int, r *rng) *workload.Trace {
	out := &workload.Trace{Name: tr.Name, FileBlocks: make(map[blockdev.FileID]blockdev.BlockNo, len(tr.FileBlocks))}
	nodeOf := r.perm(nodes)
	ids := make([]blockdev.FileID, 0, len(tr.FileBlocks))
	for f := range tr.FileBlocks {
		ids = append(ids, f)
	}
	slices.Sort(ids)
	fileOf := make(map[blockdev.FileID]blockdev.FileID, len(ids))
	for i, j := range r.perm(len(ids)) {
		fileOf[ids[i]] = ids[j]
		out.FileBlocks[ids[j]] = tr.FileBlocks[ids[i]]
	}
	for _, p := range tr.Procs {
		q := workload.Process{Node: blockdev.NodeID(nodeOf[p.Node]), Steps: make([]workload.Step, len(p.Steps))}
		for i, s := range p.Steps {
			s.File = fileOf[s.File]
			s.Think += s.Think * sim.Duration(r.between(-1000, 1000)) / 100_000
			q.Steps[i] = s
		}
		out.Procs = append(out.Procs, q)
	}
	return out
}

// buildSimInputs generates the two traces of simScale, places them by
// seed and lists the 84 cells: {CHARISMA, Sprite} x {PAFS, xFS} x the
// seven standard algorithms x {1, 4, 16} MB. (The unthrottled Agr_*
// configurations do not finish a small-scale cell in 40 s and are left
// out.) CHARISMA cells come first: they are the long ones, and a long
// cell dealt last would leave a worker idle at the end of the sweep.
func buildSimInputs(seed uint64, tr *tracer) (*simInputs, error) {
	s := simScale()
	t0 := time.Now()
	ch, err := workload.GenerateCharisma(s.Charisma)
	if err != nil {
		return nil, err
	}
	tr.add("workload.GenerateCharisma", t0, time.Since(t0), -1)
	t1 := time.Now()
	sp, err := workload.GenerateSprite(s.Sprite)
	if err != nil {
		return nil, err
	}
	tr.add("workload.GenerateSprite", t1, time.Since(t1), -1)
	in := &simInputs{warm: s.WarmFraction, genMs: time.Since(t0).Seconds() * 1e3}
	ch = placeTrace(ch, s.PM.Nodes, newRNG(seed, 5))
	sp = placeTrace(sp, s.NOW.Nodes, newRNG(seed, 6))
	if err := ch.Validate(s.PM.Nodes, s.PM.BlockSize); err != nil {
		return nil, err
	}
	if err := sp.Validate(s.NOW.Nodes, s.NOW.BlockSize); err != nil {
		return nil, err
	}
	for _, wl := range []experiment.WorkloadKind{experiment.Charisma, experiment.Sprite} {
		for _, fs := range []experiment.FSKind{experiment.PAFS, experiment.XFS} {
			for _, alg := range core.StandardAlgorithms() {
				for _, mb := range s.CacheSizesMB {
					j := simJob{tr: ch, mach: s.PM, cell: experiment.Cell{FS: fs, Workload: wl, Alg: alg, CacheMB: mb}}
					if wl == experiment.Sprite {
						j.tr, j.mach = sp, s.NOW
					}
					in.jobs = append(in.jobs, j)
				}
			}
		}
	}
	return in, nil
}

// requests returns the first n block requests of the CHARISMA trace,
// process by process: the stream the core micro-timings replay.
func (in *simInputs) requests(n int) []request {
	j := in.jobs[0]
	var out []request
	for _, p := range j.tr.Procs {
		for _, s := range p.Steps {
			if s.Kind == workload.OpClose {
				continue
			}
			span := blockdev.ByteRangeToSpan(s.File, s.Offset, s.Size, j.mach.BlockSize)
			out = append(out, request{s.File, core.Request{Offset: span.Start, Size: span.Count}})
			if len(out) == n {
				return out
			}
		}
	}
	return out
}

// sweepResult is one pass over a list of cells.
type sweepResult struct {
	results []experiment.Result
	cellMs  []float64 // host wall time of each cell
	refMs   []float64 // and of the reference unit its worker ran next
	errs    []error
	wall    time.Duration
}

// sweep simulates jobs on simWorkers workers; a worker follows every
// cell with one unit of the reference (refsim.go). With a tracer it
// records one span per experiment.RunTrace call.
func sweep(jobs []simJob, warm float64, tr *tracer) sweepResult {
	res := sweepResult{
		results: make([]experiment.Result, len(jobs)),
		cellMs:  make([]float64, len(jobs)),
		refMs:   make([]float64, len(jobs)),
		errs:    make([]error, len(jobs)),
	}
	digests := make([]uint64, len(jobs)) // of the reference units
	start := time.Now()
	root := tr.add("bench.sweep", start, 0, -1)
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < simWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				j := jobs[i]
				t0 := time.Now()
				res.results[i], res.errs[i] = experiment.RunTrace(j.tr, j.mach, j.cell, warm)
				d := time.Since(t0)
				res.cellMs[i] = d.Seconds() * 1e3
				tr.addOp("experiment.RunTrace "+j.cell.String(), t0, d, root, int64(i))
				t1 := time.Now()
				digests[i] = refSimUnit()
				res.refMs[i] = time.Since(t1).Seconds() * 1e3
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()
	res.wall = time.Since(start)
	tr.setDuration(root, res.wall)
	for i, d := range digests {
		if d != digests[0] && res.errs[i] == nil {
			res.errs[i] = errors.New("the reference unit computed something else than the first one")
		}
	}
	return res
}

// speed says how fast the host was during a pass over the cells, in
// units of the calibration machine's speed: what the pass's reference
// units take there over what they took here.
func (r sweepResult) speed() float64 {
	var ms float64
	for _, v := range r.refMs {
		ms += v
	}
	return float64(len(r.refMs)) * refSimNominalMs / ms
}

// runSim runs sim_sweep: simSetups set-ups (generate and place the
// traces, run every cell once), then sweeps of the 84 cells until
// seconds have passed. Simulated quantities (read time, hit ratio,
// events) must be bit-identical in every pass over the cells; only
// host time differs. Host time is counted in units of the reference
// (README, "Host time"): a cell costs the median, over the sweeps, of
// its time over that of the reference unit that followed it, times
// what a unit takes on the calibration machine. With a tracer every
// second sweep records a span per cell and the others run untraced.
func runSim(seed uint64, seconds float64, tr *tracer) runOutcome {
	out := runOutcome{metrics: values{}}
	var (
		in       *simInputs
		first    []experiment.Result
		setupSec []float64
		genMs    []float64
	)
	// check counts a pass's cells and holds them to the first pass.
	check := func(pass string, res sweepResult) {
		for k, r := range res.results {
			out.attempted++
			switch {
			case res.errs[k] != nil:
				out.failed++
				out.problem("%s: %v", pass, res.errs[k])
			case first != nil && r != first[k]:
				out.failed++
				out.problem("%s: cell %s differs from its first run", pass, r.Cell)
			}
		}
		if first == nil {
			first = res.results
		}
	}
	for i := 0; i < simSetups; i++ {
		t0 := time.Now()
		var err error
		if in, err = buildSimInputs(seed, tr); err != nil {
			out.problem("set-up: %v", err)
			out.attempted, out.failed = max(out.attempted, 1), out.failed+1
			return out
		}
		res := sweep(in.jobs, in.warm, nil)
		raw := time.Since(t0).Seconds()
		setupSec = append(setupSec, raw*res.speed())
		genMs = append(genMs, in.genMs*res.speed())
		check(fmt.Sprintf("set-up %d", i+1), res)
		logf("set-up %d: %.3f s at host speed %.3f: %.3f s", i+1, raw, res.speed(), setupSec[i])
	}
	var reqs uint64
	for _, r := range first {
		reqs += r.Reads + r.Writes
	}

	// ratios[0][k] holds cell k's time over its reference unit's in every
	// untraced sweep, ratios[1][k] in every traced one.
	var ratios [2][][]float64
	for c := range ratios {
		ratios[c] = make([][]float64, len(in.jobs))
	}
	// cellMs reduces a class's ratios to host milliseconds per cell on
	// the calibration machine.
	cellMs := func(class int) []float64 {
		ms := make([]float64, len(in.jobs))
		for k, v := range ratios[class] {
			ms[k] = median(v) * refSimNominalMs
		}
		return ms
	}
	opsPerS := func(cellMs []float64) float64 {
		var ms float64
		for _, v := range cellMs {
			ms += v
		}
		return float64(reqs) / (ms / 1e3 / simWorkers)
	}
	var sweepOps []float64
	start := time.Now()
	for n := 0; ; n++ {
		// Stop at the whole number of sweeps nearest to seconds.
		if el := time.Since(start).Seconds(); n >= simMinSweeps && el+el/float64(2*n) >= seconds {
			break
		}
		class, sweepTracer := 0, (*tracer)(nil)
		if tr != nil && n%2 == 1 {
			class, sweepTracer = 1, tr
		}
		res := sweep(in.jobs, in.warm, sweepTracer)
		check(fmt.Sprintf("sweep %d", n+1), res)
		var ms float64
		for k, v := range res.cellMs {
			ratios[class][k] = append(ratios[class][k], v/res.refMs[k])
			ms += v
		}
		sweepOps = append(sweepOps, float64(reqs)/(ms/1e3/simWorkers)/res.speed())
		logf("sweep %d: %.3f s, cells %.3f s, host speed %.3f: %.1f requests/s", n+1, res.wall.Seconds(), ms/1e3, res.speed(), sweepOps[n])
	}
	if out.failed != 0 {
		out.problem("%d of %d cells failed or did not repeat", out.failed, out.attempted)
	}

	// Simulated metrics, from the first pass (the others are identical
	// or the run has failed).
	var (
		readMs, hit, diskUtil, netUtil []float64
		events, diskAcc                uint64
		issued, timely, late, wasted   uint64
		linearHW                       int
	)
	for _, r := range first {
		readMs = append(readMs, r.AvgReadMs)
		hit = append(hit, r.HitRatio)
		diskUtil = append(diskUtil, r.DiskUtilization)
		netUtil = append(netUtil, r.NetUtilization)
		events += r.EventsFired
		diskAcc += r.DiskAccesses
		issued += r.PrefetchIssued
		timely += r.PrefetchTimely
		late += r.PrefetchLate
		wasted += r.PrefetchWasted
		if a := r.Cell.Alg; r.Cell.FS == experiment.PAFS && a.Mode == core.ModeAggressive && a.MaxOutstanding == 1 {
			linearHW = max(linearHW, r.MaxFilePrefetchHW)
		}
	}
	plain := cellMs(0)
	m := out.metrics
	m["setup_s"] = median(setupSec)
	m["ok_ops_pct"] = float64(out.attempted-out.failed) / float64(out.attempted) * 100
	m["ops_per_s"] = opsPerS(plain)
	m["read_mean_us"] = mean(readMs) * 1e3
	slices.Sort(readMs)
	m["read_p90_us"] = percentile(readMs, 90) * 1e3
	m["mem_served_pct"] = mean(hit) * 100
	logf("simulated: read_mean_us %.3f read_p90_us %.3f mem_served_pct %.4f events %d", m["read_mean_us"], m["read_p90_us"], m["mem_served_pct"], events)

	// PAFS runs one prefetch server per file, so under a linear (Ln_Agr)
	// algorithm no file ever has two prefetches in flight. xFS does, by
	// design: that is the paper's point.
	if linearHW > 1 {
		out.problem("a linear PAFS cell had %d prefetches of one file outstanding", linearHW)
	}

	if tr != nil {
		m["core.prefetch_issued"] = float64(issued)
		m["core.prefetch_timely"] = float64(timely)
		m["core.prefetch_late"] = float64(late)
		m["core.prefetch_wasted"] = float64(wasted)
		if issued > 0 {
			m["core.prefetch_accuracy_pct"] = float64(timely) / float64(issued) * 100
		}
		m["core.file_outstanding_hw"] = float64(linearHW)
		m["sim.events_fired"] = float64(events)
		var sumMs float64
		groupMs := map[string][]float64{}
		for k, ms := range plain {
			sumMs += ms
			g := in.jobs[k].group()
			groupMs[g] = append(groupMs[g], ms)
		}
		m["sim.event_ns"] = sumMs * 1e6 / float64(events)
		for g, v := range groupMs {
			m["experiment.cell_ms."+g] = mean(v)
		}
		m["workload.gen_ms"] = median(genMs)
		m["fscommon.disk_util_pct"] = mean(diskUtil) * 100
		m["fscommon.net_util_pct"] = mean(netUtil) * 100
		m["fscommon.disk_accesses"] = float64(diskAcc)
		m["bench.round_spread_pct"] = spreadPct(sweepOps)
		m["bench.tracing_overhead_pct"] = (opsPerS(plain) - opsPerS(cellMs(1))) / opsPerS(plain) * 100
	}
	return out
}
