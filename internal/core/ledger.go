package core

import (
	"fmt"
	"sync"

	"repro/internal/blockdev"
)

// Ledger aggregates every driver's outstanding-prefetch deltas per
// file and records high-water marks. It is the instrument behind the
// paper's linear invariant, shared by the simulator and the runtime:
// PAFS — and a lapcache cluster — runs one driver per file, so every
// file's high-water mark stays at the driver's limit (1 for Ln_Agr_*),
// while xFS runs a driver per (node, file) and shared files push the
// aggregate above 1 — the "not really linear" behaviour of §4 made
// measurable. Safe for concurrent use.
type Ledger struct {
	mu         sync.Mutex
	limit      int // 0 = unlimited
	strict     bool
	files      map[blockdev.FileID]*fileMarks
	maxHW      int
	violations uint64
}

// fileMarks is one file's count of prefetches in flight and its
// high-water mark.
type fileMarks struct{ outstanding, highWater int }

// NewLedger returns a ledger checking a per-file limit (0 = unlimited:
// high-water marks are recorded, nothing is a violation). strict turns
// violations into panics rather than counts.
func NewLedger(limit int, strict bool) *Ledger {
	return &Ledger{limit: limit, strict: strict, files: make(map[blockdev.FileID]*fileMarks)}
}

// OutstandingChanged implements OutstandingObserver.
func (l *Ledger) OutstandingChanged(f blockdev.FileID, delta int) {
	l.mu.Lock()
	m := l.files[f]
	if m == nil {
		m = new(fileMarks)
		l.files[f] = m
	}
	n := m.outstanding + delta
	if n < 0 {
		l.mu.Unlock()
		panic(fmt.Sprintf("core: file %d outstanding prefetches went negative (%d)", f, n))
	}
	m.outstanding = n
	if n > m.highWater {
		m.highWater = n
	}
	if n > l.maxHW {
		l.maxHW = n
	}
	if l.limit > 0 && n > l.limit {
		l.violations++
		if l.strict {
			l.mu.Unlock()
			panic(fmt.Sprintf("core: file %d has %d outstanding prefetches, linear limit is %d",
				f, n, l.limit))
		}
	}
	l.mu.Unlock()
}

// MaxHighWater returns the largest per-file high-water mark over every
// file — 1 on a truly linear run, >1 when independent chains
// overlapped on a shared file.
func (l *Ledger) MaxHighWater() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.maxHW
}

// HighWaters returns a copy of every file's high-water mark, leaving
// out files that never had a prefetch in flight. Cluster
// tests join these maps across nodes to assert the paper's invariant
// globally: in linear mode each file's marks, summed over the whole
// cluster, never exceed 1 — only the ring owner ever prefetches it.
func (l *Ledger) HighWaters() map[blockdev.FileID]int {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[blockdev.FileID]int, len(l.files))
	for f, m := range l.files {
		if m.highWater > 0 {
			out[f] = m.highWater
		}
	}
	return out
}

// Violations returns how many updates exceeded the limit.
func (l *Ledger) Violations() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.violations
}
