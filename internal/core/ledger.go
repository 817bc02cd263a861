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
// measurable. A driver reports through its file's marks, resolved once
// when the driver is made (Marks). Safe for concurrent use.
type Ledger struct {
	mu         sync.Mutex
	limit      int // 0 = unlimited
	strict     bool
	files      map[blockdev.FileID]*FileMarks
	maxHW      int
	violations uint64
}

// FileMarks is one file's entry in a Ledger: its count of prefetches
// in flight, summed over every driver of the file, and its high-water
// mark. It is the OutstandingObserver a driver of the file reports to,
// so an update takes the ledger's lock and looks nothing up.
type FileMarks struct {
	l                      *Ledger
	file                   blockdev.FileID
	outstanding, highWater int
}

// NewLedger returns a ledger checking a per-file limit (0 = unlimited:
// high-water marks are recorded, nothing is a violation). strict turns
// violations into panics rather than counts.
func NewLedger(limit int, strict bool) *Ledger {
	return &Ledger{limit: limit, strict: strict, files: make(map[blockdev.FileID]*FileMarks)}
}

// Marks returns file f's marks, creating them on first use: every
// driver of f that reports through them adds to one count.
func (l *Ledger) Marks(f blockdev.FileID) *FileMarks {
	l.mu.Lock()
	defer l.mu.Unlock()
	m := l.files[f]
	if m == nil {
		m = &FileMarks{l: l, file: f}
		l.files[f] = m
	}
	return m
}

// OutstandingChanged implements OutstandingObserver: it adds delta to
// the file's count, checks it against the ledger's limit and raises
// the high-water marks.
func (m *FileMarks) OutstandingChanged(delta int) {
	l := m.l
	l.mu.Lock()
	n := m.outstanding + delta
	if n < 0 {
		l.mu.Unlock()
		panic(fmt.Sprintf("core: file %d outstanding prefetches went negative (%d)", m.file, n))
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
				m.file, n, l.limit))
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
