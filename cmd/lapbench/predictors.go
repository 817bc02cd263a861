package main

import (
	"fmt"
	"io"

	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/workload"
)

// predAlgs is the predictor × driver matrix under test: the paper's
// linear-aggressive classics, the post-paper association predictors,
// and NP as the do-nothing baseline. All prefetchers run under the
// same linear throttle, so the only variable is the predictor.
func predAlgs() []core.AlgSpec {
	return []core.AlgSpec{
		core.SpecNP,
		core.SpecLnAgrOBA,
		core.SpecLnAgrISPPM1,
		core.SpecLnAgrISPPM3,
		core.SpecLnAgrMithril,
		core.SpecLnAgrMarkov,
	}
}

// classicPred reports whether the algorithm is one of the paper's
// linear-aggressive configurations (the incumbents the new predictors
// are judged against).
func classicPred(name string) bool {
	return name == "Ln_Agr_OBA" || name == "Ln_Agr_IS_PPM:1" || name == "Ln_Agr_IS_PPM:3"
}

func anyPred(string) bool { return true }

// predCell is one (workload, algorithm) run of the matrix at the
// scenario cache size.
type predCell struct {
	workload string
	alg      core.AlgSpec
	res      experiment.Result
}

// bestOf returns the workload's cell with the lowest avg read time
// among the algorithms keep admits (the zero predCell if none).
func bestOf(cells []predCell, wl string, keep func(alg string) bool) predCell {
	var b predCell
	for _, c := range cells {
		if c.workload == wl && keep(c.alg.Name()) && (b.workload == "" || c.res.AvgReadMs < b.res.AvgReadMs) {
			b = c
		}
	}
	return b
}

// deepSeqTrace builds the whole-file sequential scan workload: every
// client streams its own large file start to finish, block run after
// block run. The best case for sequential predictors — OBA is right on
// every request — and the control scenario where the new predictors
// must NOT win.
func deepSeqTrace(nodes int, blockSize int64) *workload.Trace {
	// Offered load stays well under aggregate disk capacity and think
	// time is long vs a ~15ms disk read, so an aggressive chain can run
	// ahead of the reader; that gap is precisely the win the paper
	// claims for sequential scans.
	const (
		clients    = 12
		fileBlocks = 900
		runBlocks  = 4
		thinkMs    = 80
	)
	tr := &workload.Trace{
		Name:       "deepseq",
		FileBlocks: make(map[blockdev.FileID]blockdev.BlockNo),
	}
	rng := sim.NewRNG(7)
	for ci := 0; ci < clients; ci++ {
		crng := rng.Split()
		f := blockdev.FileID(ci)
		tr.FileBlocks[f] = fileBlocks
		proc := workload.Process{Node: blockdev.NodeID(ci % nodes)}
		for off := int64(0); off < fileBlocks; off += runBlocks {
			n := int64(runBlocks)
			if off+n > fileBlocks {
				n = fileBlocks - off
			}
			proc.Steps = append(proc.Steps, workload.Step{
				Think:  sim.Duration(crng.Exp(float64(sim.Milliseconds(thinkMs)))),
				Kind:   workload.OpRead,
				File:   f,
				Offset: off * blockSize,
				Size:   n * blockSize,
			})
		}
		tr.Procs = append(tr.Procs, proc)
	}
	return tr
}

// runPredictors runs the predictor × workload matrix — the paper's
// CHARISMA plus deepseq, CDN and OLTP — at the scale's smallest cache
// (the paper's small-cache regime, and the only regime where re-fetch
// pressure exists at all), prints the which-predictor-for-which-
// workload report, and enforces its headline claims.
func runPredictors(w io.Writer, s experiment.Scale, workers int) error {
	cacheMB := s.CacheSizesMB[0]
	deep := deepSeqTrace(s.NOW.Nodes, s.NOW.BlockSize)
	var cells []predCell
	for _, wl := range []struct {
		name  string
		kind  experiment.WorkloadKind
		input func(experiment.WorkloadKind) (*workload.Trace, machine.Config, error)
	}{
		{"charisma", experiment.Charisma, s.Trace},
		// deepseq is no WorkloadKind; its cells keep the zero kind,
		// which only seeds the engine.
		{"deepseq", 0, func(experiment.WorkloadKind) (*workload.Trace, machine.Config, error) { return deep, s.NOW, nil }},
		{"cdn", experiment.CDN, s.Trace},
		{"oltp", experiment.OLTP, s.Trace},
	} {
		var row []experiment.Cell
		for _, a := range predAlgs() {
			row = append(row, experiment.Cell{FS: experiment.PAFS, Workload: wl.kind, Alg: a, CacheMB: cacheMB})
		}
		results, err := experiment.RunCells(wl.input, row, s.WarmFraction, workers)
		if err != nil {
			return fmt.Errorf("predictors %s: %w", wl.name, err)
		}
		for _, r := range results {
			cells = append(cells, predCell{workload: wl.name, alg: r.Cell.Alg, res: r})
		}
	}

	blockSize := s.NOW.BlockSize
	pfBytesPerHit := func(r experiment.Result) float64 {
		if r.PrefetchTimely == 0 {
			return 0
		}
		return float64(r.PrefetchIssued*uint64(blockSize)) / float64(r.PrefetchTimely)
	}

	// The win-ratio claims only hold at full scale: at smaller scales
	// the workload footprints fit in cache, so the association
	// predictors have no re-fetch traffic to predict.
	enforce := s.Name == "full"

	fmt.Fprintf(w, "predictor × workload matrix: PAFS, %dMB per-node cache, scale %s\n", cacheMB, s.Name)
	fmt.Fprintf(w, "(avg read time is the paper's figure of merit; pf-B/hit is bytes prefetched per timely hit)\n\n")
	last := ""
	for _, c := range cells {
		if c.workload != last {
			if last != "" {
				fmt.Fprintln(w)
			}
			fmt.Fprintf(w, "%-10s %-18s %9s %6s %8s %8s %8s %8s %10s\n",
				"workload", "alg", "read-ms", "hit-%", "issued", "timely", "late", "wasted", "pf-B/hit")
			last = c.workload
		}
		r := c.res
		fmt.Fprintf(w, "%-10s %-18s %9.3f %6.1f %8d %8d %8d %8d %10.0f\n",
			c.workload, c.alg.Name(), r.AvgReadMs, 100*r.HitRatio,
			r.PrefetchIssued, r.PrefetchTimely, r.PrefetchLate, r.PrefetchWasted, pfBytesPerHit(r))
	}
	fmt.Fprintln(w)

	for _, wl := range []string{"charisma", "deepseq", "cdn", "oltp"} {
		b := bestOf(cells, wl, anyPred)
		fmt.Fprintf(w, "%-10s best: %-18s %.3f ms\n", wl, b.alg.Name(), b.res.AvgReadMs)
	}
	if !enforce {
		fmt.Fprintf(w, "\n(win checks skipped at scale %s: footprints fit in cache)\n", s.Name)
		return nil
	}
	return checkPredictors(cells)
}

// checkPredictors enforces the matrix's headline claims:
//
//  1. the paper's small-cache CHARISMA ranking is unchanged — the best
//     classic linear-aggressive algorithm still beats both new
//     predictors there, and still beats NP;
//  2. deepseq stays classic territory too;
//  3. each new predictor wins at least one scenario outright (best
//     avg read time in the cell) — a cell the classics lose.
func checkPredictors(cells []predCell) error {
	get := func(wl, alg string) predCell {
		return bestOf(cells, wl, func(name string) bool { return name == alg })
	}
	bestClassic := func(wl string) predCell { return bestOf(cells, wl, classicPred) }
	winner := func(wl string) predCell { return bestOf(cells, wl, anyPred) }

	// 1. CHARISMA: classic linear-aggressive must beat NP (the paper's
	// headline) and both new predictors (the ranking is preserved).
	chClassic := bestClassic("charisma")
	if np := get("charisma", "NP"); chClassic.res.AvgReadMs >= np.res.AvgReadMs {
		return fmt.Errorf("charisma: classic %s (%.3f ms) did not beat NP (%.3f ms)",
			chClassic.alg.Name(), chClassic.res.AvgReadMs, np.res.AvgReadMs)
	}
	for _, name := range []string{"Ln_Agr_Mithril", "Ln_Agr_Markov"} {
		if n := get("charisma", name); chClassic.res.AvgReadMs >= n.res.AvgReadMs {
			return fmt.Errorf("charisma ranking changed: %s (%.3f ms) beat classic %s (%.3f ms)",
				name, n.res.AvgReadMs, chClassic.alg.Name(), chClassic.res.AvgReadMs)
		}
	}

	// 2. deepseq: a classic sequential predictor must win the cell.
	if w := winner("deepseq"); !classicPred(w.alg.Name()) {
		return fmt.Errorf("deepseq won by %s (%.3f ms), want a classic sequential predictor",
			w.alg.Name(), w.res.AvgReadMs)
	}

	// 3. Each new predictor takes at least one scenario outright —
	// meaning every classic linear-aggressive config loses that cell.
	wins := map[string]string{}
	for _, wl := range []string{"cdn", "oltp"} {
		wins[winner(wl).alg.Name()] = wl
	}
	for _, name := range []string{"Ln_Agr_Mithril", "Ln_Agr_Markov"} {
		wl, ok := wins[name]
		if !ok {
			return fmt.Errorf("%s won no scenario (cdn winner %s, oltp winner %s)",
				name, winner("cdn").alg.Name(), winner("oltp").alg.Name())
		}
		if c := bestClassic(wl); c.res.AvgReadMs <= winner(wl).res.AvgReadMs {
			return fmt.Errorf("%s: classic %s did not lose the cell", wl, c.alg.Name())
		}
	}
	return nil
}
