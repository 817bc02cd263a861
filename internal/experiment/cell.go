package experiment

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/fscommon"
	"repro/internal/machine"
	"repro/internal/pafs"
	"repro/internal/sim"
	"repro/internal/workload"
	"repro/internal/xfs"
)

// FSKind selects the simulated file system.
type FSKind int

// File systems under test.
const (
	PAFS FSKind = iota
	XFS
)

// String names the file system as in the paper.
func (k FSKind) String() string {
	if k == PAFS {
		return "PAFS"
	}
	return "xFS"
}

// ParseFS returns the file system a -fs flag names, in any case.
func ParseFS(name string) (FSKind, error) {
	for k := PAFS; k <= XFS; k++ {
		if strings.EqualFold(name, k.String()) {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown file system %q", name)
}

// WorkloadKind selects the trace workload (and with it the machine;
// see Scale.Trace).
type WorkloadKind int

// Workloads under test: the paper's two.
const (
	Charisma WorkloadKind = iota // parallel machine (PM)
	Sprite                       // network of workstations (NOW)
)

// String names the workload as in the paper.
func (k WorkloadKind) String() string {
	switch k {
	case Charisma:
		return "CHARISMA"
	case Sprite:
		return "Sprite"
	default:
		return "unknown"
	}
}

// ParseWorkload returns the workload a -workload flag names, in any
// case.
func ParseWorkload(name string) (WorkloadKind, error) {
	for k := Charisma; k <= Sprite; k++ {
		if strings.EqualFold(name, k.String()) {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown workload %q", name)
}

// Cell is one simulation run: a point on one curve of one figure.
type Cell struct {
	FS       FSKind
	Workload WorkloadKind
	Alg      core.AlgSpec
	CacheMB  int
	// Recirculations overrides xFS's N-chance forwarding count
	// (0 keeps the default of 2, negative disables forwarding — the
	// no-cooperation baseline); ignored for PAFS. Used by the
	// cooperation ablation study.
	Recirculations int
}

// String renders the cell compactly.
func (c Cell) String() string {
	return fmt.Sprintf("%s/%s/%s/%dMB", c.Workload, c.FS, c.Alg.Name(), c.CacheMB)
}

// Result holds every metric one run produces. The tags are the stable
// keys of its JSONL record (lapsim -metrics), which MarshalJSON heads
// with the cell's names.
type Result struct {
	Cell Cell `json:"-"`

	// AvgReadMs is the y-axis of Figures 4–7.
	AvgReadMs float64 `json:"avg_read_ms"`
	// DiskAccesses is the y-axis of Figures 8–11.
	DiskAccesses uint64 `json:"disk_accesses"`
	DiskReads    uint64 `json:"disk_reads"`
	DiskWrites   uint64 `json:"disk_writes"`
	// WritesPerBlock is the Table 2 metric.
	WritesPerBlock float64 `json:"writes_per_block"`

	// Prefetch quality.
	PrefetchIssued     uint64  `json:"prefetch_issued"`
	FallbackFraction   float64 `json:"fallback_fraction"`
	MispredictionRatio float64 `json:"misprediction_ratio"`

	// Prefetch timeliness (see core.Fates), inside the measurement
	// window: Timely prefetches were used from the cache, Late ones lost
	// the race to demand traffic, Wasted ones were evicted unused;
	// UnusedAtEnd counts speculative copies still untouched when the
	// run drained.
	PrefetchTimely      uint64 `json:"prefetch_timely"`
	PrefetchLate        uint64 `json:"prefetch_late"`
	PrefetchWasted      uint64 `json:"prefetch_wasted"`
	PrefetchUnusedAtEnd uint64 `json:"prefetch_unused_at_end"`

	// MaxFilePrefetchHW is the largest number of prefetches ever
	// simultaneously in flight for any single file, machine-wide. 1 on
	// a truly linear run (PAFS); >1 exposes xFS's per-node chains
	// overlapping on shared files.
	MaxFilePrefetchHW int `json:"max_file_prefetch_outstanding"`

	// Resource utilization over the whole run (warm-up and drain
	// included), plus queue-depth high-water marks.
	DiskUtilization   float64 `json:"disk_utilization"`
	DiskPrefetchShare float64 `json:"disk_prefetch_share"` // share of disk busy time at prefetch priority
	DiskMaxQueue      int     `json:"disk_max_queue"`
	NetUtilization    float64 `json:"net_utilization"`
	NetMaxQueue       int     `json:"net_max_queue"`

	// EventsFired counts simulator events executed — a determinism
	// fingerprint of the whole run.
	EventsFired uint64 `json:"events_fired"`

	HitRatio float64  `json:"hit_ratio"`
	Reads    uint64   `json:"reads"`
	Writes   uint64   `json:"writes"`
	SimTime  sim.Time `json:"sim_time_ns"`
}

// RunTrace simulates an explicit trace (for example one loaded from a
// tracegen file) on the given machine under cell c's file system,
// algorithm and cache size; c.Workload is informational only.
func RunTrace(tr *workload.Trace, mach machine.Config, c Cell, warmFraction float64) (Result, error) {
	return RunTraceObserved(tr, mach, c, warmFraction, nil)
}

// RunTraceObserved is RunTrace with an optional sim.Tracer attached to
// the engine for the whole run. Tracing is observation only, so every
// number in the Result is identical with and without it.
func RunTraceObserved(tr *workload.Trace, mach machine.Config, c Cell, warmFraction float64, tracer sim.Tracer) (Result, error) {
	if err := tr.Validate(mach.Nodes, mach.BlockSize); err != nil {
		return Result{}, err
	}
	if c.CacheMB <= 0 {
		return Result{}, fmt.Errorf("experiment: cache size %d MB", c.CacheMB)
	}
	if err := c.Alg.Validate(); err != nil {
		return Result{}, fmt.Errorf("experiment: bad algorithm: %w", err)
	}

	e := sim.NewEngine(uint64(c.CacheMB)*1000003 + uint64(c.Workload)*7 + uint64(c.FS)*13 + 1)
	if tracer != nil {
		e.SetTracer(tracer)
	}
	cacheBlocks := mach.CacheBlocksPerNode(c.CacheMB)

	var fs *fscommon.Base // what both file systems are built on
	switch c.FS {
	case PAFS:
		fs = pafs.New(e, pafs.Config{
			Machine:            mach,
			CacheBlocksPerNode: cacheBlocks,
			Algorithm:          c.Alg,
		}, tr).Base
	case XFS:
		fs = xfs.New(e, xfs.Config{
			Machine:            mach,
			CacheBlocksPerNode: cacheBlocks,
			Algorithm:          c.Alg,
			Recirculations:     c.Recirculations,
		}, tr).Base
	default:
		return Result{}, fmt.Errorf("experiment: unknown file system %d", c.FS)
	}

	runner := fscommon.NewRunner(fs, tr, warmFraction)
	end := runner.Run(e)
	if !runner.Done() {
		return Result{}, fmt.Errorf("experiment: %s did not complete", c)
	}

	coll := fs.Coll
	// The window's fates; the misprediction ratio takes the whole run's,
	// drain included, with every copy still unused at the end as wasted.
	fates := fs.MeasuredFates()
	total := fs.Fates()
	wasted := total.Wasted + fs.Cch.UnusedPrefetchedCopies()
	used := total.Timely
	misprediction := 0.0
	if wasted+used > 0 {
		misprediction = float64(wasted) / float64(wasted+used)
	}
	return Result{
		Cell:               c,
		AvgReadMs:          coll.AvgReadTime().Milliseconds(),
		DiskAccesses:       coll.DiskAccesses(),
		DiskReads:          coll.DiskReads(),
		DiskWrites:         coll.DiskWrites(),
		WritesPerBlock:     coll.WritesPerBlock(),
		PrefetchIssued:     fates.Issued,
		FallbackFraction:   fates.FallbackFraction(),
		MispredictionRatio: misprediction,

		PrefetchTimely:      fates.Timely,
		PrefetchLate:        fates.Late,
		PrefetchWasted:      fates.Wasted,
		PrefetchUnusedAtEnd: fs.Cch.UnusedPrefetchedCopies(),
		MaxFilePrefetchHW:   fs.MaxPrefetchHighWater(),

		DiskUtilization:   fs.Disks.Utilization(),
		DiskPrefetchShare: fs.Disks.PrefetchBusyFraction(),
		DiskMaxQueue:      fs.Disks.MaxQueueLenAll(),
		NetUtilization:    fs.Net.Utilization(),
		NetMaxQueue:       fs.Net.MaxPortQueueLen(),
		EventsFired:       e.Fired(),

		HitRatio: coll.BlockHitRatio(),
		Reads:    coll.Reads(),
		Writes:   coll.Writes(),
		SimTime:  end,
	}, nil
}
