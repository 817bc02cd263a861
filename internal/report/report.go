// Package report generates the paper-versus-measured reproduction
// record (EXPERIMENTS.md): it embeds the quantitative values the paper
// states (Table 2 and the in-text claims) and the qualitative shapes
// its figures argue from, evaluates each against a finished experiment
// suite, and renders a markdown report with a verdict per item.
package report

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/experiment"
)

// PaperTable2 is the paper's Table 2 verbatim: average number of times
// a block is written to disk, CHARISMA under PAFS, by per-node cache
// size.
var PaperTable2 = map[string][5]float64{
	"NP":              {5.9, 8.8, 11.7, 11.7, 11.7},
	"Ln_Agr_OBA":      {5.2, 7.9, 10.4, 10.9, 11.0},
	"Ln_Agr_IS_PPM:1": {4.2, 7.2, 10.4, 10.5, 10.6},
	"Ln_Agr_IS_PPM:3": {4.0, 7.6, 10.1, 10.5, 10.5},
}

// Verdict grades one reproduced item.
type Verdict string

// Verdicts.
const (
	Match   Verdict = "MATCH"   // the paper's shape/claim holds
	Partial Verdict = "PARTIAL" // holds in direction, off in degree
	Differ  Verdict = "DIFFERS" // does not hold in this reproduction
)

// Check is one evaluated item of the record.
type Check struct {
	ID       string // e.g. "fig4-groups"
	Paper    string // what the paper reports
	Measured string // what this reproduction measured
	Verdict  Verdict
	Note     string // explanation, especially for PARTIAL/DIFFERS
}

// Report is the full reproduction record.
type Report struct {
	ScaleName string
	Figures   map[string]experiment.Figure
	Checks    []Check
	// Observability holds example cell results whose timeliness and
	// utilization counters the record's Observability section tabulates.
	Observability []experiment.Result

	// sweeps are the four finished matrices the figures were built
	// from: CHARISMA then Sprite, PAFS then xFS. sizes is the cache-size
	// axis they share, smallest first.
	sweeps []*experiment.Matrix
	sizes  []int
}

// Build runs (or reuses) every sweep the record needs and evaluates
// the verdict table over them.
func Build(suite *experiment.Suite) (*Report, error) {
	r := &Report{
		ScaleName: suite.Scale.Name,
		Figures:   make(map[string]experiment.Figure),
		sizes:     suite.Scale.CacheSizesMB,
	}
	for _, id := range experiment.FigureIDs() {
		fig, err := suite.Figure(id)
		if err != nil {
			return nil, err
		}
		r.Figures[id] = fig
	}
	for _, wl := range []experiment.WorkloadKind{experiment.Charisma, experiment.Sprite} {
		for _, fs := range []experiment.FSKind{experiment.PAFS, experiment.XFS} {
			m, err := suite.Matrix(fs, wl)
			if err != nil {
				return nil, err
			}
			r.sweeps = append(r.sweeps, m)
		}
	}
	for _, c := range checks {
		v, measured := c.measure(r)
		verdict, note := c.grade(v)
		r.Checks = append(r.Checks, Check{ID: c.id, Paper: c.paper, Measured: measured, Verdict: verdict, Note: note})
	}

	// Example cells for the Observability table: two aggressive
	// algorithms at the sweep's middle cache size, on every matrix.
	mid := r.sizes[len(r.sizes)/2]
	for _, m := range r.sweeps {
		for _, alg := range []string{"Ln_Agr_OBA", "Ln_Agr_IS_PPM:1"} {
			if res, ok := m.Get(alg, mid); ok {
				r.Observability = append(r.Observability, res)
			}
		}
	}
	return r, nil
}

// value reads one figure point, panicking on absence (Build populated
// every figure from the same sweeps).
func (r *Report) value(fig, alg string, mb int) float64 {
	v, ok := r.Figures[fig].Value(alg, mb)
	if !ok {
		panic(fmt.Sprintf("report: missing %s/%s@%dMB", fig, alg, mb))
	}
	return v
}

// largest returns the sweeps' largest cache size.
func (r *Report) largest() int { return r.sizes[len(r.sizes)-1] }

// sweep returns one of the four finished matrices.
func (r *Report) sweep(fs experiment.FSKind, wl experiment.WorkloadKind) *experiment.Matrix {
	for _, m := range r.sweeps {
		if m.FS == fs && m.Workload == wl {
			return m
		}
	}
	panic(fmt.Sprintf("report: no %s/%s sweep", wl, fs))
}

// minOver returns the best (lowest) value of a figure over some
// algorithms at one cache size.
func (r *Report) minOver(fig string, algs []string, mb int) float64 {
	best := r.value(fig, algs[0], mb)
	for _, a := range algs[1:] {
		if v := r.value(fig, a, mb); v < best {
			best = v
		}
	}
	return best
}

// vsNP returns every alg/NP ratio of a figure over the given
// algorithms and cache sizes.
func (r *Report) vsNP(fig string, algs []string, sizes []int) []float64 {
	var ratios []float64
	for _, alg := range algs {
		for _, mb := range sizes {
			ratios = append(ratios, r.value(fig, alg, mb)/r.value(fig, "NP", mb))
		}
	}
	return ratios
}

// gap is how many times the larger of two values is the smaller.
func gap(a, b float64) float64 {
	g := a / b
	if g < 1 {
		g = 1 / g
	}
	return g
}

// meanOver averages one metric over some algorithms at every cache
// size of a sweep.
func meanOver(m *experiment.Matrix, algs []string, f func(experiment.Result) float64) float64 {
	var sum float64
	var n int
	for _, a := range algs {
		for _, mb := range m.CacheSizesMB {
			if res, ok := m.Get(a, mb); ok {
				sum += f(res)
				n++
			}
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// The algorithm groups the paper argues from.
var (
	oneShot    = []string{"OBA", "IS_PPM:1", "IS_PPM:3"}
	aggressive = []string{"Ln_Agr_OBA", "Ln_Agr_IS_PPM:1", "Ln_Agr_IS_PPM:3"}
	agrISPPM   = aggressive[1:]
)

// check is one row of the verdict table before it is evaluated.
type check struct {
	id    string
	paper string // what the paper reports
	// measure reads the numbers the row is judged on off the finished
	// sweeps, and words them for the Measured column.
	measure func(r *Report) (v []float64, measured string)
	// grade judges those numbers alone, so every threshold can be
	// tested without running a sweep; the note explains a verdict that
	// needs explaining.
	grade func(v []float64) (Verdict, string)
}

// ladder is the rule nearly every row is graded by: DIFFERS when the
// paper's shape is absent; PARTIAL, with the note that says why, when
// it holds in direction but is off in degree; MATCH otherwise.
func ladder(absent, offInDegree bool, partialNote string) (Verdict, string) {
	switch {
	case absent:
		return Differ, ""
	case offInDegree:
		return Partial, partialNote
	}
	return Match, ""
}

// checks is the verdict table: every reading of Figures 4–11 (§5.2,
// §5.3), Table 2 and the in-text numbers that this record grades, in
// the order EXPERIMENTS.md lists them. Build evaluates it once; the
// claim-* rows are what `lapbench -exp claims` prints.
var checks = []check{
	{
		id:    "fig4-prefetching-helps",
		paper: "all prefetching algorithms achieve better performance than NP",
		measure: func(r *Report) ([]float64, string) {
			worst := max(1, slices.Max(r.vsNP("fig4", slices.Concat(oneShot, aggressive), r.sizes)))
			return []float64{worst}, fmt.Sprintf("worst prefetching/NP read-time ratio %.2f", worst)
		},
		grade: func(v []float64) (Verdict, string) {
			return ladder(false, v[0] > 1.05, "some (algorithm, size) points fall slightly behind NP")
		},
	},
	{
		// The aggressive group is the best at the largest cache.
		id:    "fig4-groups",
		paper: "three groups: OBA barely helps, IS_PPM much better, linear aggressive nearly doubles the IS_PPM group",
		measure: func(r *Report) ([]float64, string) {
			large := r.largest()
			one, agr := r.minOver("fig4", oneShot, large), r.minOver("fig4", aggressive, large)
			return []float64{one, agr}, fmt.Sprintf("@%dMB best one-shot %.2f ms vs best aggressive %.2f ms (%.1fx)", large, one, agr, one/agr)
		},
		grade: func(v []float64) (Verdict, string) {
			one, agr := v[0], v[1]
			return ladder(agr >= one, one/agr < 1.5, "")
		},
	},
	{
		// Speed-up over NP at the largest cache.
		id:    "fig4-speedup",
		paper: "linear aggressive prefetching up to 4.6x faster than NP with large caches",
		measure: func(r *Report) ([]float64, string) {
			large := r.largest()
			speedup := r.value("fig4", "NP", large) / r.minOver("fig4", aggressive, large)
			return []float64{speedup}, fmt.Sprintf("%.1fx @%dMB", speedup, large)
		},
		grade: func(v []float64) (Verdict, string) {
			verdict, _ := ladder(v[0] < 2, v[0] < 3 || v[0] > 10, "")
			return verdict, "absolute factor depends on the scaled trace; same order of magnitude"
		},
	},
	{
		// Small-cache ordering: Ln_Agr_OBA at least ties Ln_Agr_IS_PPM.
		id:    "fig4-small-cache-crossover",
		paper: "with small caches Ln_Agr_OBA beats Ln_Agr_IS_PPM (IS_PPM jumps into the never-accessed tail)",
		measure: func(r *Report) ([]float64, string) {
			small := r.sizes[0]
			oba, isp := r.value("fig4", "Ln_Agr_OBA", small), r.value("fig4", "Ln_Agr_IS_PPM:1", small)
			return []float64{oba, isp}, fmt.Sprintf("@%dMB Ln_Agr_OBA %.2f ms vs Ln_Agr_IS_PPM:1 %.2f ms", small, oba, isp)
		},
		grade: func(v []float64) (Verdict, string) {
			oba, isp := v[0], v[1]
			return ladder(oba > isp*1.05, oba > isp, "")
		},
	},
	{
		id:    "fig4-order-insensitive",
		paper: "the order of the Markov predictor does not make a significant difference",
		measure: func(r *Report) ([]float64, string) {
			var maxGap float64
			for _, mb := range r.sizes {
				maxGap = max(maxGap, gap(r.value("fig4", "Ln_Agr_IS_PPM:1", mb), r.value("fig4", "Ln_Agr_IS_PPM:3", mb)))
			}
			return []float64{maxGap}, fmt.Sprintf("largest 1st-vs-3rd-order read-time gap %.2fx", maxGap)
		},
		grade: func(v []float64) (Verdict, string) { return ladder(false, v[0] > 1.5, "") },
	},
	{
		// The xFS flooding story: somewhere below the largest cache, a
		// non-aggressive algorithm must beat its not-really-linear
		// aggressive version.
		id:    "fig5-flooding",
		paper: "on xFS too many blocks are prefetched and the cache is flooded; with small caches less-aggressive algorithms achieve better read times",
		measure: func(r *Report) ([]float64, string) {
			for _, mb := range r.sizes[:len(r.sizes)-1] {
				if r.value("fig5", "OBA", mb) < r.value("fig5", "Ln_Agr_OBA", mb) ||
					r.value("fig5", "IS_PPM:1", mb) < r.value("fig5", "Ln_Agr_IS_PPM:1", mb) {
					return []float64{float64(mb)}, fmt.Sprintf("non-aggressive beats aggressive at %dMB", mb)
				}
			}
			return []float64{0}, "non-aggressive beats aggressive never"
		},
		grade: func(v []float64) (Verdict, string) { return ladder(v[0] == 0, false, "") },
	},
	{
		id:    "fig6-aggressive-wins",
		paper: "both Ln_Agr_IS_PPM algorithms obtain the best performance on Sprite",
		measure: func(r *Report) ([]float64, string) {
			large := r.largest()
			agr, np := r.minOver("fig6", agrISPPM, large), r.value("fig6", "NP", large)
			return []float64{agr, np}, fmt.Sprintf("@%dMB Ln_Agr_IS_PPM %.2f ms vs NP %.2f ms (%.1fx)", large, agr, np, np/agr)
		},
		grade: func(v []float64) (Verdict, string) {
			agr, np := v[0], v[1]
			return ladder(agr >= np, false, "")
		},
	},
	{
		id:    "fig7-xfs-tracks-pafs",
		paper: "with Sprite's little file sharing there is not much difference between PAFS (linear) and xFS (not really linear)",
		measure: func(r *Report) ([]float64, string) {
			var maxGap float64
			for _, alg := range []string{"NP", "Ln_Agr_OBA", "Ln_Agr_IS_PPM:1"} {
				for _, mb := range r.sizes {
					maxGap = max(maxGap, gap(r.value("fig6", alg, mb), r.value("fig7", alg, mb)))
				}
			}
			return []float64{maxGap}, fmt.Sprintf("largest PAFS-vs-xFS read-time gap %.2fx", maxGap)
		},
		grade: func(v []float64) (Verdict, string) { return ladder(false, v[0] > 1.5, "") },
	},
	{
		// Extra accesses are modest except for very small caches; at
		// large caches aggressive converges to (paper: sometimes
		// below) NP.
		id:    "fig8-pafs-traffic",
		paper: "on PAFS the extra disk accesses are not very high except for very small caches; sometimes even lower than NP",
		measure: func(r *Report) ([]float64, string) {
			large := r.largest()
			worst := slices.Max(r.vsNP("fig8", aggressive, []int{large}))
			return []float64{worst}, fmt.Sprintf("worst aggressive/NP access ratio @%dMB: %.2f", large, worst)
		},
		grade: func(v []float64) (Verdict, string) {
			return ladder(v[0] > 1.25, v[0] > 1.02, "the paper sometimes measures aggressive *below* NP thanks to write-back savings; this reproduction converges to parity from above")
		},
	},
	{
		id:    "fig9-xfs-traffic",
		paper: "under xFS the aggressive algorithms always perform more disk accesses than NP (not really linear)",
		measure: func(r *Report) ([]float64, string) {
			least := slices.Min(r.vsNP("fig9", aggressive, r.sizes))
			return []float64{least}, fmt.Sprintf("aggressive above NP at every size: %v", least > 1)
		},
		grade: func(v []float64) (Verdict, string) { return ladder(v[0] <= 1, false, "") },
	},
	{
		// Sprite traffic increase stays moderate. The paper's claim is
		// about the overall level, so the verdict keys on the mean
		// ratio; the worst single point is reported alongside.
		id:    "fig10-11-sprite-traffic",
		paper: "on Sprite the aggressive algorithms do not increase the disk traffic too much",
		measure: func(r *Report) ([]float64, string) {
			ratios := slices.Concat(r.vsNP("fig10", aggressive, r.sizes), r.vsNP("fig11", aggressive, r.sizes))
			var sum float64
			for _, ratio := range ratios {
				sum += ratio
			}
			mean, worst := sum/float64(len(ratios)), slices.Max(ratios)
			return []float64{mean, worst}, fmt.Sprintf("mean aggressive/NP access ratio %.2f (worst point %.2f)", mean, worst)
		},
		grade: func(v []float64) (Verdict, string) {
			switch mean, worst := v[0], v[1]; {
			case mean > 2:
				return Differ, ""
			case mean > 1.7:
				return Partial, ""
			case worst > 2:
				return Match, "the single worst point is Ln_Agr_OBA at the smallest cache, where its blind readahead wastes the most — the same asymmetry as the paper's misprediction comparison"
			}
			return Match, ""
		},
	},
	{
		// Direction only: aggressive algorithms write blocks no more
		// often than NP (the paper's §5.3 point).
		id:    "table2-writes-per-block",
		paper: "blocks are written to disk fewer times under aggressive prefetching (NP 11.7 vs Ln_Agr ~10.5 at 16MB)",
		measure: func(r *Report) ([]float64, string) {
			better, total := 0, 0
			for _, alg := range aggressive {
				for _, mb := range r.sizes {
					total++
					if r.value("table2", alg, mb) <= r.value("table2", "NP", mb)*1.01 {
						better++
					}
				}
			}
			return []float64{float64(better), float64(total)}, fmt.Sprintf("aggressive <= NP at %d/%d points", better, total)
		},
		grade: func(v []float64) (Verdict, string) {
			better, total := int(v[0]), int(v[1])
			return ladder(better < total/2, better < total, "the gradient is small at this scale: the speed-up mostly hides in compute pauses, so write coalescing changes little")
		},
	},
	{
		id:    "claim-misprediction",
		paper: "at 4MB on Sprite, Ln_Agr_OBA mispredicts 32% of prefetched blocks vs 15% for Ln_Agr_IS_PPM",
		measure: func(r *Report) ([]float64, string) {
			sp := r.sweep(experiment.PAFS, experiment.Sprite)
			oba := sp.MustGet("Ln_Agr_OBA", 4).MispredictionRatio
			isp := sp.MustGet("Ln_Agr_IS_PPM:1", 4).MispredictionRatio
			return []float64{oba, isp}, fmt.Sprintf("%.1f%% vs %.1f%%", 100*oba, 100*isp)
		},
		grade: func(v []float64) (Verdict, string) {
			oba, isp := v[0], v[1]
			return ladder(oba <= isp, oba < isp*1.5, "direction holds; the synthetic Sprite is more sequential than the original trace, so OBA wastes less here")
		},
	},
	{
		id:    "claim-fallback",
		paper: "blocks prefetched via the OBA fallback: <1% on CHARISMA (large files), ~25% on Sprite (small files)",
		measure: func(r *Report) ([]float64, string) {
			fallback := func(res experiment.Result) float64 { return res.FallbackFraction }
			ch := meanOver(r.sweep(experiment.PAFS, experiment.Charisma), agrISPPM, fallback)
			sp := meanOver(r.sweep(experiment.PAFS, experiment.Sprite), agrISPPM, fallback)
			return []float64{ch, sp}, fmt.Sprintf("%.1f%% vs %.1f%%", 100*ch, 100*sp)
		},
		grade: func(v []float64) (Verdict, string) {
			ch, sp := v[0], v[1]
			return ladder(ch >= sp, ch > 0.05, "ordering holds (large files need far less fallback than small ones); absolute fractions are higher because the scaled traces revisit each file only a few times, so graphs stay colder than over the paper's 33 hours")
		},
	},
	{
		id:    "claim-xfs-volume",
		paper: "in the xFS executions the number of prefetched blocks doubles the number observed under PAFS",
		measure: func(r *Report) ([]float64, string) {
			pafs, xfs := r.sweep(experiment.PAFS, experiment.Charisma), r.sweep(experiment.XFS, experiment.Charisma)
			var ratio float64
			var n int
			for _, alg := range aggressive {
				for _, mb := range r.sizes {
					p := pafs.MustGet(alg, mb).PrefetchIssued
					x := xfs.MustGet(alg, mb).PrefetchIssued
					if p > 0 {
						ratio += float64(x) / float64(p)
						n++
					}
				}
			}
			ratio /= float64(n)
			return []float64{ratio}, fmt.Sprintf("%.1fx", ratio)
		},
		grade: func(v []float64) (Verdict, string) {
			return ladder(v[0] <= 1.05, v[0] > 4, "direction holds strongly; the factor exceeds the paper's because every process of a job here runs on a distinct node, all prefetching independently")
		},
	},
	{
		// §4's structural claim read directly from the per-file
		// prefetch counts instead of inferred from traffic: PAFS never has more than
		// one prefetch outstanding for any file machine-wide, while
		// xFS's independent per-node chains overlap on CHARISMA's
		// shared files.
		id:    "claim-linearity",
		paper: "PAFS enforces one outstanding prefetch per file machine-wide (linear); xFS's per-node chains make it not really linear (§4)",
		measure: func(r *Report) ([]float64, string) {
			maxHW := func(fs experiment.FSKind, wl experiment.WorkloadKind) int {
				m, hw := r.sweep(fs, wl), 0
				for _, alg := range aggressive {
					for _, mb := range r.sizes {
						hw = max(hw, m.MustGet(alg, mb).MaxFilePrefetchHW)
					}
				}
				return hw
			}
			pafs := max(maxHW(experiment.PAFS, experiment.Charisma), maxHW(experiment.PAFS, experiment.Sprite))
			xfs := maxHW(experiment.XFS, experiment.Charisma)
			return []float64{float64(pafs), float64(xfs)}, fmt.Sprintf("max outstanding per file: PAFS %d, xFS on CHARISMA %d", pafs, xfs)
		},
		grade: func(v []float64) (Verdict, string) {
			switch pafs, xfs := v[0], v[1]; {
			case pafs > 1:
				return Differ, "PAFS exceeded one outstanding prefetch per file — its servers are no longer linear"
			case xfs <= 1:
				return Differ, "xFS chains never overlapped; the shared-file contention the paper blames for flooding is absent"
			}
			return Match, ""
		},
	},
}

// writeVerdicts renders evaluated rows as the verdict table and its
// notes.
func writeVerdicts(b *strings.Builder, rows []Check) {
	b.WriteString("| check | paper says | measured | verdict |\n|---|---|---|---|\n")
	for _, c := range rows {
		fmt.Fprintf(b, "| %s | %s | %s | %s |\n", c.ID, c.Paper, c.Measured, c.Verdict)
	}
	b.WriteString("\n### Notes\n\n")
	for _, c := range rows {
		if c.Note != "" {
			fmt.Fprintf(b, "- **%s** (%s): %s\n", c.ID, c.Verdict, c.Note)
		}
	}
}

// Claims renders the paper's in-text numbers alone: the claim-* rows
// of the verdict table, exactly as Render prints them.
func (r *Report) Claims() string {
	var b strings.Builder
	b.WriteString("In-text claims (the claim-* rows of `-exp report`)\n\n")
	writeVerdicts(&b, slices.DeleteFunc(slices.Clone(r.Checks), func(c Check) bool {
		return !strings.HasPrefix(c.ID, "claim-")
	}))
	return b.String()
}

// Render emits the record as markdown.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# EXPERIMENTS — paper vs. measured\n\n")
	fmt.Fprintf(&b, "Generated by `lapbench -scale %s -exp report`. ", r.ScaleName)
	b.WriteString("Absolute numbers are not expected to match the paper — the machine and the traces are scaled-down synthetic substitutes (see DESIGN.md) — the *shapes* are what this record verifies.\n\n")

	b.WriteString("## Verdict summary\n\n")
	writeVerdicts(&b, r.Checks)

	b.WriteString("\n## Paper Table 2 (exact values, for reference)\n\n")
	b.WriteString("| algorithm | 1MB | 2MB | 4MB | 8MB | 16MB |\n|---|---|---|---|---|---|\n")
	for _, alg := range []string{"NP", "Ln_Agr_OBA", "Ln_Agr_IS_PPM:1", "Ln_Agr_IS_PPM:3"} {
		vals := PaperTable2[alg]
		fmt.Fprintf(&b, "| %s | %.1f | %.1f | %.1f | %.1f | %.1f |\n",
			alg, vals[0], vals[1], vals[2], vals[3], vals[4])
	}

	b.WriteString("\n## Observability\n\n")
	b.WriteString("Every run also records prefetch timeliness and resource utilization (see `lapsim -metrics` / `-trace-out`):\n\n")
	b.WriteString("- **timely** — prefetched blocks later served to a user request from the cache;\n")
	b.WriteString("- **late** — demand fetches that went to disk while a prefetch of the same block was still in flight (the prefetch lost the race);\n")
	b.WriteString("- **wasted** — prefetched blocks evicted untouched during the measurement window, plus those still untouched when the run drained (**unused@end**);\n")
	b.WriteString("- **max out/file** — the largest number of prefetches ever simultaneously outstanding for any single file, machine-wide. This is the paper's §4 linearity claim made measurable: PAFS's per-file servers hold it at 1, while xFS's per-node chains overlap on CHARISMA's shared files and push it above 1 (the claim-linearity check above). Sprite shares too little for xFS chains to overlap, which is exactly why Figures 6–7 track each other;\n")
	b.WriteString("- **disk util / pf share** — fraction of simulated time the disks were busy, and the share of that busy time spent at prefetch priority.\n\n")
	if len(r.Observability) > 0 {
		b.WriteString("| cell | timely | late | wasted | unused@end | max out/file | disk util | pf share |\n")
		b.WriteString("|---|---|---|---|---|---|---|---|\n")
		for _, res := range r.Observability {
			fmt.Fprintf(&b, "| %s | %d | %d | %d | %d | %d | %.3f | %.3f |\n",
				res.Cell, res.PrefetchTimely, res.PrefetchLate, res.PrefetchWasted,
				res.PrefetchUnusedAtEnd, res.MaxFilePrefetchHW,
				res.DiskUtilization, res.DiskPrefetchShare)
		}
	}

	b.WriteString("\n## Measured figures\n\n")
	for _, id := range experiment.FigureIDs() {
		fig := r.Figures[id]
		fmt.Fprintf(&b, "```\n%s```\n\n", fig.Render())
	}
	return b.String()
}
