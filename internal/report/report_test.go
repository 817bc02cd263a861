package report

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/experiment"
)

func buildTiny(t *testing.T) *Report {
	t.Helper()
	suite := experiment.NewSuite(experiment.TinyScale(), 0)
	r, err := Build(suite)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestBuildProducesAllChecks(t *testing.T) {
	r := buildTiny(t)
	want := []string{
		"fig4-prefetching-helps", "fig4-groups", "fig4-speedup",
		"fig4-small-cache-crossover", "fig4-order-insensitive",
		"fig5-flooding", "fig6-aggressive-wins", "fig7-xfs-tracks-pafs",
		"fig8-pafs-traffic", "fig9-xfs-traffic", "fig10-11-sprite-traffic",
		"table2-writes-per-block", "claim-misprediction",
		"claim-fallback", "claim-xfs-volume", "claim-linearity",
	}
	got := make(map[string]Check)
	for _, c := range r.Checks {
		got[c.ID] = c
	}
	for _, id := range want {
		c, ok := got[id]
		if !ok {
			t.Errorf("missing check %s", id)
			continue
		}
		if c.Paper == "" || c.Measured == "" {
			t.Errorf("check %s incomplete: %+v", id, c)
		}
		switch c.Verdict {
		case Match, Partial, Differ:
		default:
			t.Errorf("check %s has verdict %q", id, c.Verdict)
		}
	}
	if len(r.Checks) != len(want) {
		t.Errorf("%d checks, want %d", len(r.Checks), len(want))
	}
}

func TestBuildPopulatesAllFigures(t *testing.T) {
	r := buildTiny(t)
	for _, id := range experiment.FigureIDs() {
		if _, ok := r.Figures[id]; !ok {
			t.Errorf("missing figure %s", id)
		}
	}
}

func TestRenderStructure(t *testing.T) {
	out := buildTiny(t).Render()
	for _, want := range []string{
		"# EXPERIMENTS", "## Verdict summary", "## Paper Table 2",
		"## Measured figures", "| check | paper says | measured | verdict |",
		"fig4-speedup", "11.7", // a paper Table 2 value
		"paper Fig. 4",
		"## Observability", "claim-linearity", "max out/file",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestObservabilitySection(t *testing.T) {
	r := buildTiny(t)
	if len(r.Observability) == 0 {
		t.Fatal("no observability example cells collected")
	}
	var sawPafs, sawXfs bool
	for _, res := range r.Observability {
		switch res.Cell.FS {
		case experiment.PAFS:
			sawPafs = true
			if res.MaxFilePrefetchHW > 1 {
				t.Errorf("%s: PAFS high-water %d > 1", res.Cell, res.MaxFilePrefetchHW)
			}
		case experiment.XFS:
			sawXfs = true
		}
	}
	if !sawPafs || !sawXfs {
		t.Errorf("example cells cover pafs=%v xfs=%v, want both", sawPafs, sawXfs)
	}
	for _, c := range r.Checks {
		if c.ID == "claim-linearity" {
			if c.Verdict != Match {
				t.Errorf("claim-linearity = %s (%s), want MATCH", c.Verdict, c.Note)
			}
			return
		}
	}
	t.Fatal("claim-linearity check missing")
}

func TestPaperTable2Embeds(t *testing.T) {
	if len(PaperTable2) != 4 {
		t.Fatalf("%d Table 2 rows, want 4", len(PaperTable2))
	}
	// Spot-check the published values.
	if PaperTable2["NP"][4] != 11.7 || PaperTable2["Ln_Agr_IS_PPM:3"][0] != 4.0 {
		t.Error("Table 2 values wrong")
	}
}

// TestVerdictsGoldenTiny pins all 16 rows of the verdict table at the
// tiny scale. The simulator is deterministic, so any difference means
// either the simulation or the evaluation of it changed.
func TestVerdictsGoldenTiny(t *testing.T) {
	want := []struct {
		id, measured string
		verdict      Verdict
	}{
		{"fig4-prefetching-helps", "worst prefetching/NP read-time ratio 1.00", Match},
		{"fig4-groups", "@16MB best one-shot 4.68 ms vs best aggressive 0.52 ms (9.0x)", Match},
		{"fig4-speedup", "10.9x @16MB", Partial},
		{"fig4-small-cache-crossover", "@1MB Ln_Agr_OBA 0.57 ms vs Ln_Agr_IS_PPM:1 0.89 ms", Match},
		{"fig4-order-insensitive", "largest 1st-vs-3rd-order read-time gap 1.35x", Match},
		{"fig5-flooding", "non-aggressive beats aggressive never", Differ},
		{"fig6-aggressive-wins", "@16MB Ln_Agr_IS_PPM 1.24 ms vs NP 3.10 ms (2.5x)", Match},
		{"fig7-xfs-tracks-pafs", "largest PAFS-vs-xFS read-time gap 1.14x", Match},
		{"fig8-pafs-traffic", "worst aggressive/NP access ratio @16MB: 1.19", Partial},
		{"fig9-xfs-traffic", "aggressive above NP at every size: true", Match},
		{"fig10-11-sprite-traffic", "mean aggressive/NP access ratio 1.50 (worst point 1.91)", Match},
		{"table2-writes-per-block", "aggressive <= NP at 9/9 points", Match},
		{"claim-misprediction", "35.1% vs 27.0%", Partial},
		{"claim-fallback", "31.0% vs 71.2%", Partial},
		{"claim-xfs-volume", "3.6x", Match},
		{"claim-linearity", "max outstanding per file: PAFS 1, xFS on CHARISMA 2", Match},
	}
	got := buildTiny(t).Checks
	if len(got) != len(want) {
		t.Fatalf("%d checks, want %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.ID != w.id || g.Measured != w.measured || g.Verdict != w.verdict {
			t.Errorf("row %d: got (%s, %q, %s), want (%s, %q, %s)",
				i, g.ID, g.Measured, g.Verdict, w.id, w.measured, w.verdict)
		}
	}
}

// TestGradeBoundaries feeds every row's grade synthetic measurements on
// each side of each of its thresholds, with no sweep behind them: the
// verdict must follow the thresholds the table declares, and a row
// cannot join the table without declaring its cases here.
func TestGradeBoundaries(t *testing.T) {
	cases := map[string][]struct {
		v    []float64
		want Verdict
	}{
		"fig4-prefetching-helps": {{[]float64{1}, Match}, {[]float64{1.05}, Match}, {[]float64{1.06}, Partial}},
		// (best one-shot, best aggressive)
		"fig4-groups":  {{[]float64{3, 1}, Match}, {[]float64{1.5, 1}, Match}, {[]float64{1.49, 1}, Partial}, {[]float64{1, 1}, Differ}, {[]float64{1, 2}, Differ}},
		"fig4-speedup": {{[]float64{1.9}, Differ}, {[]float64{2}, Partial}, {[]float64{2.9}, Partial}, {[]float64{3}, Match}, {[]float64{10}, Match}, {[]float64{10.1}, Partial}},
		// (Ln_Agr_OBA, Ln_Agr_IS_PPM:1)
		"fig4-small-cache-crossover": {{[]float64{0.9, 1}, Match}, {[]float64{1, 1}, Match}, {[]float64{1.04, 1}, Partial}, {[]float64{1.05, 1}, Partial}, {[]float64{1.06, 1}, Differ}},
		"fig4-order-insensitive":     {{[]float64{1.5}, Match}, {[]float64{1.51}, Partial}},
		// cache size of the first flip, 0 = never
		"fig5-flooding": {{[]float64{0}, Differ}, {[]float64{1}, Match}, {[]float64{8}, Match}},
		// (best Ln_Agr_IS_PPM, NP)
		"fig6-aggressive-wins": {{[]float64{1, 2}, Match}, {[]float64{2, 2}, Differ}, {[]float64{3, 2}, Differ}},
		"fig7-xfs-tracks-pafs": {{[]float64{1.5}, Match}, {[]float64{1.51}, Partial}},
		"fig8-pafs-traffic":    {{[]float64{0.9}, Match}, {[]float64{1.02}, Match}, {[]float64{1.03}, Partial}, {[]float64{1.25}, Partial}, {[]float64{1.26}, Differ}},
		// smallest aggressive/NP ratio
		"fig9-xfs-traffic": {{[]float64{1.01}, Match}, {[]float64{1}, Differ}, {[]float64{0.9}, Differ}},
		// (mean ratio, worst ratio)
		"fig10-11-sprite-traffic": {{[]float64{1.7, 1.9}, Match}, {[]float64{1.7, 2.5}, Match}, {[]float64{1.71, 2.5}, Partial}, {[]float64{2, 2.5}, Partial}, {[]float64{2.01, 2.5}, Differ}},
		// (points at or below NP, points)
		"table2-writes-per-block": {{[]float64{15, 15}, Match}, {[]float64{14, 15}, Partial}, {[]float64{7, 15}, Partial}, {[]float64{6, 15}, Differ}},
		// (Ln_Agr_OBA, Ln_Agr_IS_PPM:1)
		"claim-misprediction": {{[]float64{0.32, 0.15}, Match}, {[]float64{0.75, 0.5}, Match}, {[]float64{0.74, 0.5}, Partial}, {[]float64{0.2, 0.2}, Differ}, {[]float64{0.1, 0.2}, Differ}},
		// (CHARISMA, Sprite)
		"claim-fallback":   {{[]float64{0.01, 0.25}, Match}, {[]float64{0.05, 0.25}, Match}, {[]float64{0.06, 0.25}, Partial}, {[]float64{0.25, 0.25}, Differ}, {[]float64{0.3, 0.25}, Differ}},
		"claim-xfs-volume": {{[]float64{1.05}, Differ}, {[]float64{1.06}, Match}, {[]float64{2}, Match}, {[]float64{4}, Match}, {[]float64{4.1}, Partial}},
		// (PAFS high-water, xFS-on-CHARISMA high-water)
		"claim-linearity": {{[]float64{1, 2}, Match}, {[]float64{2, 2}, Differ}, {[]float64{1, 1}, Differ}, {[]float64{0, 0}, Differ}},
	}
	for _, c := range checks {
		rows, ok := cases[c.id]
		if !ok {
			t.Errorf("%s: no boundary cases declared", c.id)
		}
		reached := map[Verdict]bool{}
		for _, tc := range rows {
			got, _ := c.grade(tc.v)
			reached[got] = true
			if got != tc.want {
				t.Errorf("%s: grade(%v) = %s, want %s", c.id, tc.v, got, tc.want)
			}
		}
		if len(reached) < 2 {
			t.Errorf("%s: cases reach only %v", c.id, reached)
		}
		delete(cases, c.id)
	}
	for id := range cases {
		t.Errorf("cases declared for %s, which is not in the table", id)
	}
}

// TestClaimsSubset: what `lapbench -exp claims` prints is exactly the
// claim-* rows (and notes) of the one verdict table, as `-exp report`
// renders them — no second computation of the in-text numbers exists
// to disagree with it.
func TestClaimsSubset(t *testing.T) {
	r := buildTiny(t)
	full := strings.Split(r.Render(), "\n")
	inReport := make(map[string]bool, len(full))
	for _, line := range full {
		inReport[line] = true
	}
	var rows []string
	for _, line := range strings.Split(r.Claims(), "\n") {
		if !strings.HasPrefix(line, "| ") && !strings.HasPrefix(line, "- **") {
			continue
		}
		if !inReport[line] {
			t.Errorf("claims line not in the report: %s", line)
		}
		if strings.HasPrefix(line, "| claim-") {
			rows = append(rows, strings.Fields(line)[1])
		} else if !strings.HasPrefix(line, "| check ") && !strings.HasPrefix(line, "- **claim-") {
			t.Errorf("claims prints a row that is no claim: %s", line)
		}
	}
	var want []string
	for _, c := range r.Checks {
		if strings.HasPrefix(c.ID, "claim-") {
			want = append(want, c.ID)
		}
	}
	if len(want) != 4 || !reflect.DeepEqual(rows, want) {
		t.Errorf("claims rows %v, want the table's four claim rows %v", rows, want)
	}
}
