package core

import (
	"repro/internal/blockdev"
)

// Markov is a Pangloss-style Markov-chain predictor (Papaphilippou et
// al.): a compact, row-normalized transition probability matrix over
// request start blocks, predicted by *most-probable successor* chains
// instead of the paper's most-recent links.
//
// It differs from the two PPM family members already in the package on
// exactly the axes Pangloss argues for:
//
//   - BlockPPM keeps raw lifetime counts over an order-j history of
//     individual blocks; Markov is first-order over request starts,
//     and each row is a bounded candidate set whose counts age (halve)
//     whenever the row total passes AgeThreshold, so the matrix tracks
//     the *current* probability distribution, not the all-history one.
//   - IS_PPM follows the single most-recent link; Markov ranks a row's
//     candidates by estimated probability and only predicts when the
//     winner's share of the row clears MinProb — a transition that is
//     merely the latest is not worth prefetching if the row says it is
//     a coin flip.
//
// Prediction chains walk successive most-probable transitions up to
// MaxChain steps, mirroring Pangloss's limited-depth chained lookup.
// Memory is bounded by MaxRows rows of at most RowWidth candidates,
// displacing the least-recently-updated row when full.
type Markov struct {
	cfg MarkovConfig

	started bool
	last    blockdev.BlockNo

	rows table[blockdev.BlockNo, markovRow]
}

// MarkovConfig bounds the matrix. The zero value selects the defaults.
type MarkovConfig struct {
	// MaxRows bounds the number of states (request start blocks) the
	// matrix keeps; RowWidth bounds the candidate successors per state.
	// Defaults 4096 and 8.
	MaxRows  int
	RowWidth int
	// AgeThreshold: when a row's total count reaches it, every count
	// in the row is halved (Pangloss's aging), so stale transitions
	// decay instead of pinning the argmax forever. Default 32.
	AgeThreshold uint32
	// MinProb is the minimum estimated probability (candidate count /
	// row total) a successor needs to be predicted, in percent.
	// Default 25.
	MinProbPct uint32
	// MaxChain bounds the speculative chain depth per real request.
	// Default 8.
	MaxChain int
}

// withDefaults fills unset fields.
func (c MarkovConfig) withDefaults() MarkovConfig {
	if c.MaxRows <= 0 {
		c.MaxRows = 4096
	}
	if c.RowWidth <= 0 {
		c.RowWidth = 8
	}
	if c.AgeThreshold == 0 {
		c.AgeThreshold = 32
	}
	if c.MinProbPct == 0 {
		c.MinProbPct = 25
	}
	if c.MaxChain <= 0 {
		c.MaxChain = 8
	}
	return c
}

// markovRow is one row of the probability matrix: a bounded candidate
// set (a candidate's weight is its transition count) plus the row
// total the probabilities normalize against. total includes displaced
// candidates' residue, so probabilities stay honest when the row is
// under pressure.
type markovRow struct {
	cands candRow
	total uint32
}

// NewMarkov returns a predictor with the default configuration.
func NewMarkov() *Markov { return NewMarkovConfigured(MarkovConfig{}) }

// NewMarkovConfigured returns a predictor with explicit bounds.
func NewMarkovConfigured(cfg MarkovConfig) *Markov {
	cfg = cfg.withDefaults()
	return &Markov{cfg: cfg, rows: newTable[blockdev.BlockNo, markovRow](cfg.MaxRows)}
}

// Name identifies the algorithm.
func (*Markov) Name() string { return "Markov" }

// RowCount returns the number of matrix rows currently held.
func (m *Markov) RowCount() int { return m.rows.len() }

// MaxRows returns the configured row bound (for conformance checks).
func (m *Markov) MaxRows() int { return m.cfg.MaxRows }

// Observe records the transition last -> r.Offset and ages its row
// when due.
func (m *Markov) Observe(r Request, _ Tick) Cursor {
	if m.started && m.last != r.Offset {
		row := m.rows.update(m.last)
		row.total++
		row.cands.bump(r.Offset, r.Size, 1, m.cfg.RowWidth)
		if row.total >= m.cfg.AgeThreshold {
			row.age()
		}
	}
	m.started = true
	m.last = r.Offset
	return Cursor{Offset: r.Offset, Size: r.Size}
}

// age halves every count in the row (and the total), dropping
// candidates that decay to zero.
func (row *markovRow) age() {
	out := row.cands[:0]
	var total uint32
	for _, c := range row.cands {
		c.weight /= 2
		if c.weight > 0 {
			total += c.weight
			out = append(out, c)
		}
	}
	row.cands = out
	// Keep the displaced-candidate residue proportionally.
	row.total /= 2
	if row.total < total {
		row.total = total
	}
}

// Predict returns the most probable successor of the cursor's block if
// its estimated probability clears the threshold.
func (m *Markov) Predict(cur Cursor) (Prediction, Cursor, bool) {
	if int(cur.Depth) >= m.cfg.MaxChain {
		return Prediction{}, cur, false
	}
	row := m.rows.get(cur.Offset)
	if row == nil || row.total == 0 {
		return Prediction{}, cur, false
	}
	best, ok := row.cands.strongest()
	if !ok || uint64(best.weight)*100 < uint64(row.total)*uint64(m.cfg.MinProbPct) {
		return Prediction{}, cur, false
	}
	p := Prediction{Request: Request{Offset: best.block, Size: best.size}}
	return p, Cursor{Offset: best.block, Size: best.size, Depth: cur.Depth + 1}, true
}
