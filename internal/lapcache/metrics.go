package lapcache

import (
	"fmt"
	"sync/atomic"
)

// Metrics is the engine's counter set: the runtime image of the PR-1
// observability layer, kept as atomics so request goroutines and
// prefetch workers update it without a shared lock. Snapshot() freezes
// it into a plain struct for expvar/JSON export.
type Metrics struct {
	demandHits   atomic.Uint64
	demandMisses atomic.Uint64
	writes       atomic.Uint64

	prefetchIssued    atomic.Uint64
	prefetchFallback  atomic.Uint64
	prefetchCompleted atomic.Uint64
	prefetchCancelled atomic.Uint64
	prefetchDropped   atomic.Uint64
	prefetchDupSkip   atomic.Uint64

	prefetchTimely atomic.Uint64
	prefetchLate   atomic.Uint64
	prefetchWasted atomic.Uint64

	storeReads  atomic.Uint64
	storeWrites atomic.Uint64

	// Cooperative peer tier (zero on a single-node engine).
	remoteReads     atomic.Uint64
	remoteHits      atomic.Uint64
	remoteMisses    atomic.Uint64
	remoteFallbacks atomic.Uint64
	forwardedWrites atomic.Uint64
	peerReads       atomic.Uint64
	peerWrites      atomic.Uint64
}

// Snapshot is a frozen, JSON-exportable view of the engine's counters
// plus the per-file linearity marks.
type Snapshot struct {
	// Demand path: reads served by this node's cache or store. A
	// client's read of a file owned elsewhere books neither; it is a
	// remote read.
	DemandHits   uint64 `json:"demand_hits"`
	DemandMisses uint64 `json:"demand_misses"`
	Writes       uint64 `json:"writes"`

	// Prefetch lifecycle.
	PrefetchIssued    uint64 `json:"prefetch_issued"`
	PrefetchFallback  uint64 `json:"prefetch_fallback"`
	PrefetchCompleted uint64 `json:"prefetch_completed"`
	PrefetchCancelled uint64 `json:"prefetch_cancelled"`
	// PrefetchDropped counts operations refused because the bounded
	// prefetch queue was full — the engine's backpressure valve.
	PrefetchDropped uint64 `json:"prefetch_dropped"`
	// PrefetchDupSkipped counts operations skipped at dispatch because
	// the block was already cached or already being fetched
	// (singleflight dedup against demand misses).
	PrefetchDupSkipped uint64 `json:"prefetch_dup_skipped"`

	// Timeliness classification (PR-1 semantics).
	PrefetchTimely uint64 `json:"prefetch_timely"`
	PrefetchLate   uint64 `json:"prefetch_late"`
	PrefetchWasted uint64 `json:"prefetch_wasted"`
	// PrefetchUnused counts speculative blocks still sitting untouched
	// in the cache at snapshot time.
	PrefetchUnused uint64 `json:"prefetch_unused"`

	// Backing store traffic: blocks successfully read (demand fills
	// and prefetches alike) and successfully written, only ever of
	// files this node owns; a failed call counts nothing.
	StoreReads  uint64 `json:"store_reads"`
	StoreWrites uint64 `json:"store_writes"`

	// Cooperative peer tier. RemoteReads counts blocks fetched from a
	// file's owner node; RemoteHits/RemoteMisses classify those
	// forward RPCs by whether the owner served entirely from memory.
	// RemoteFallbacks counts forwards refused because the owner was
	// unreachable (ErrOwnerUnreachable). PeerReadsServed/PeerWritesServed
	// are the owner side: forwarded requests served for peers.
	RemoteReads      uint64 `json:"remote_reads,omitempty"`
	RemoteHits       uint64 `json:"remote_hits,omitempty"`
	RemoteMisses     uint64 `json:"remote_misses,omitempty"`
	RemoteFallbacks  uint64 `json:"remote_fallbacks,omitempty"`
	ForwardedWrites  uint64 `json:"forwarded_writes,omitempty"`
	PeerReadsServed  uint64 `json:"peer_reads_served,omitempty"`
	PeerWritesServed uint64 `json:"peer_writes_served,omitempty"`

	// Buffer pool traffic: fills served by allocating a new block
	// buffer vs. recycling a released one. A steady-state ratio near
	// all-recycles is the zero-copy data path working as intended.
	BufAllocs   uint64 `json:"buf_allocs"`
	BufRecycles uint64 `json:"buf_recycles"`
	// BufLive is the number of buffers currently out of the pool (Gets
	// minus final Releases). After Shutdown+DrainCache it must be 0 —
	// the chaos harness's leak invariant.
	BufLive int64 `json:"buf_live"`

	// Linearity: the largest number of prefetches ever simultaneously
	// in flight for any one file — exactly 1 on a linear run.
	MaxFileOutstandingHW int `json:"max_file_outstanding_hw"`
	// LinearViolations counts updates of a file's prefetch count that
	// took it past the file's window cap; always 0 unless the engine is
	// misconfigured (it is also asserted server-side when strict).
	LinearViolations uint64 `json:"linear_violations"`

	// Prefetch windows (zero / omitted on static engines). DegreeCap
	// is the spec's hard ceiling; MaxDegree the widest window any file
	// holds now (1 before feedback moves one); DegreeWidens and
	// DegreeClamps sum the widen steps and hard resets to linear.
	DegreeCap    int    `json:"degree_cap,omitempty"`
	MaxDegree    int    `json:"max_degree,omitempty"`
	DegreeWidens uint64 `json:"degree_widens,omitempty"`
	DegreeClamps uint64 `json:"degree_clamps,omitempty"`

	CachedBlocks int `json:"cached_blocks"`
}

// HitRatio returns the demand hit ratio.
func (s Snapshot) HitRatio() float64 {
	total := s.DemandHits + s.DemandMisses
	if total == 0 {
		return 0
	}
	return float64(s.DemandHits) / float64(total)
}

// String renders the snapshot as a compact one-line summary.
func (s Snapshot) String() string {
	return fmt.Sprintf(
		"hits=%d misses=%d (ratio %.3f) prefetch issued=%d timely=%d late=%d wasted=%d dropped=%d maxHW=%d",
		s.DemandHits, s.DemandMisses, s.HitRatio(),
		s.PrefetchIssued, s.PrefetchTimely, s.PrefetchLate, s.PrefetchWasted,
		s.PrefetchDropped, s.MaxFileOutstandingHW)
}
