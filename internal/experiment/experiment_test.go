package experiment

import (
	"strings"
	"testing"

	"repro/internal/core"
)

// runCell simulates one cell the way every sweep does: through
// RunCells, on the trace and machine s names for its workload.
func runCell(s Scale, c Cell) (Result, error) {
	rs, err := RunCells(s.Trace, []Cell{c}, s.WarmFraction, 1)
	if err != nil {
		return Result{}, err
	}
	return rs[0], nil
}

func TestRunCellDeterministic(t *testing.T) {
	s := TinyScale()
	c := Cell{FS: PAFS, Workload: Charisma, Alg: core.SpecLnAgrOBA, CacheMB: 4}
	a, err := runCell(s, c)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runCell(s, c)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("same cell produced different results:\n%+v\n%+v", a, b)
	}
}

func TestRunCellRejectsBadConfig(t *testing.T) {
	s := TinyScale()
	if _, err := runCell(s, Cell{FS: PAFS, Workload: Charisma, Alg: core.SpecNP, CacheMB: 0}); err == nil {
		t.Error("zero cache accepted")
	}
	if _, err := runCell(s, Cell{FS: FSKind(9), Workload: Charisma, Alg: core.SpecNP, CacheMB: 1}); err == nil {
		t.Error("bad fs accepted")
	}
	if _, err := runCell(s, Cell{FS: PAFS, Workload: WorkloadKind(9), Alg: core.SpecNP, CacheMB: 1}); err == nil {
		t.Error("bad workload accepted")
	}
	bad := TinyScale()
	bad.Charisma.Apps = 0
	if _, err := runCell(bad, Cell{FS: PAFS, Workload: Charisma, Alg: core.SpecNP, CacheMB: 1}); err == nil {
		t.Error("bad workload params accepted")
	}
}

func TestRunCellProducesSaneMetrics(t *testing.T) {
	s := TinyScale()
	r, err := runCell(s, Cell{FS: XFS, Workload: Sprite, Alg: core.SpecLnAgrISPPM1, CacheMB: 4})
	if err != nil {
		t.Fatal(err)
	}
	if r.Reads == 0 || r.AvgReadMs <= 0 {
		t.Error("no read activity measured")
	}
	if r.DiskAccesses == 0 || r.DiskAccesses != r.DiskReads+r.DiskWrites {
		t.Error("disk accounting inconsistent")
	}
	if r.PrefetchIssued == 0 {
		t.Error("aggressive algorithm issued no prefetches")
	}
	if r.MispredictionRatio < 0 || r.MispredictionRatio > 1 {
		t.Errorf("misprediction ratio %v out of range", r.MispredictionRatio)
	}
	if r.HitRatio < 0 || r.HitRatio > 1 {
		t.Errorf("hit ratio %v out of range", r.HitRatio)
	}
	if r.SimTime <= 0 {
		t.Error("no simulated time elapsed")
	}
}

func TestRunMatrixCoversSweep(t *testing.T) {
	s := TinyScale()
	algs := []core.AlgSpec{core.SpecNP, core.SpecLnAgrOBA}
	m, err := Run(s, PAFS, Charisma, algs, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range algs {
		for _, mb := range s.CacheSizesMB {
			if _, ok := m.Get(a.Name(), mb); !ok {
				t.Errorf("missing result %s @ %dMB", a.Name(), mb)
			}
		}
	}
	if _, ok := m.Get("nonsense", 1); ok {
		t.Error("Get returned a result for an unknown algorithm")
	}
	if _, ok := m.Get("NP", 3); ok {
		t.Error("Get returned a result for an unswept size")
	}
}

func TestRunMatrixParallelEqualsSerial(t *testing.T) {
	s := TinyScale()
	algs := []core.AlgSpec{core.SpecNP, core.SpecOBA}
	serial, err := Run(s, XFS, Sprite, algs, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(s, XFS, Sprite, algs, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range algs {
		for _, mb := range s.CacheSizesMB {
			if serial.MustGet(a.Name(), mb) != parallel.MustGet(a.Name(), mb) {
				t.Errorf("parallelism changed %s @ %dMB", a.Name(), mb)
			}
		}
	}
}

func TestFigureDefinitionsComplete(t *testing.T) {
	ids := FigureIDs()
	if len(ids) != 9 {
		t.Fatalf("%d artifacts, want 9 (fig4..fig11 + table2)", len(ids))
	}
	for _, id := range ids {
		if _, _, err := MatrixKeyForFigure(id); err != nil {
			t.Fatal(err)
		}
		if len(figureDefs[id].algs()) == 0 {
			t.Errorf("figure %s has no algorithms", id)
		}
	}
	if _, _, err := MatrixKeyForFigure("fig99"); err == nil {
		t.Error("unknown figure accepted")
	}
}

func TestFigureMapping(t *testing.T) {
	cases := map[string]struct {
		fs FSKind
		wl WorkloadKind
	}{
		"fig4": {PAFS, Charisma}, "fig5": {XFS, Charisma},
		"fig6": {PAFS, Sprite}, "fig7": {XFS, Sprite},
		"fig8": {PAFS, Charisma}, "fig9": {XFS, Charisma},
		"fig10": {PAFS, Sprite}, "fig11": {XFS, Sprite},
		"table2": {PAFS, Charisma},
	}
	for id, want := range cases {
		fs, wl, err := MatrixKeyForFigure(id)
		if err != nil {
			t.Fatal(err)
		}
		if fs != want.fs || wl != want.wl {
			t.Errorf("%s maps to %s/%s, want %s/%s", id, wl, fs, want.wl, want.fs)
		}
	}
}

func TestSuiteBuildsFigureAndReusesMatrix(t *testing.T) {
	suite := NewSuite(TinyScale(), 2)
	fig4, err := suite.Figure("fig4")
	if err != nil {
		t.Fatal(err)
	}
	if len(fig4.Series) != 7 {
		t.Errorf("fig4 has %d series, want 7", len(fig4.Series))
	}
	if len(fig4.Sizes) != len(TinyScale().CacheSizesMB) {
		t.Error("fig4 sizes wrong")
	}
	// fig8 must reuse the same matrix (no recomputation) and subset
	// the algorithms.
	before := len(suite.matrices)
	fig8, err := suite.Figure("fig8")
	if err != nil {
		t.Fatal(err)
	}
	if len(suite.matrices) != before {
		t.Error("fig8 recomputed the CHARISMA/PAFS matrix")
	}
	if len(fig8.Series) != 4 {
		t.Errorf("fig8 has %d series, want 4 (NP + 3 aggressive)", len(fig8.Series))
	}
	// Cross-check: the same cell appears in both figures consistently.
	readMs, _ := fig4.Value("NP", 4)
	if readMs <= 0 {
		t.Error("fig4 NP value missing")
	}
	if _, ok := fig4.Value("NP", 3); ok {
		t.Error("Value returned a point for an unswept size")
	}
	if _, ok := fig4.Value("bogus", 4); ok {
		t.Error("Value returned a point for an unknown algorithm")
	}
}

func TestFigureRenderFormat(t *testing.T) {
	suite := NewSuite(TinyScale(), 2)
	fig, err := suite.Figure("table2")
	if err != nil {
		t.Fatal(err)
	}
	out := fig.Render()
	for _, want := range []string{"Table 2", "NP", "Ln_Agr_OBA", "Ln_Agr_IS_PPM:1", "Ln_Agr_IS_PPM:3", "1MB", "16MB"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestBuildFigureRejectsWrongMatrix(t *testing.T) {
	s := TinyScale()
	m, err := Run(s, XFS, Sprite, []core.AlgSpec{core.SpecNP}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildFigure("fig4", m); err == nil {
		t.Error("fig4 built from a Sprite/xFS matrix")
	}
	if _, err := BuildFigure("fig7", m); err == nil {
		t.Error("figure built despite missing algorithms")
	}
	if _, err := BuildFigure("nope", m); err == nil {
		t.Error("unknown figure accepted")
	}
}

func TestKindStrings(t *testing.T) {
	if PAFS.String() != "PAFS" || XFS.String() != "xFS" {
		t.Error("FSKind strings wrong")
	}
	if Charisma.String() != "CHARISMA" || Sprite.String() != "Sprite" {
		t.Error("WorkloadKind strings wrong")
	}
	c := Cell{FS: XFS, Workload: Sprite, Alg: core.SpecNP, CacheMB: 8}
	if c.String() != "Sprite/xFS/NP/8MB" {
		t.Errorf("Cell.String = %q", c.String())
	}
}

func TestTable1Passthrough(t *testing.T) {
	if !strings.Contains(Table1(), "Disk Read Seek") {
		t.Error("Table1 output incomplete")
	}
}

func TestScalesValidate(t *testing.T) {
	for _, s := range []Scale{FullScale(), SmallScale(), TinyScale()} {
		if err := s.PM.Validate(); err != nil {
			t.Errorf("%s PM: %v", s.Name, err)
		}
		if err := s.NOW.Validate(); err != nil {
			t.Errorf("%s NOW: %v", s.Name, err)
		}
		if err := s.Charisma.Validate(); err != nil {
			t.Errorf("%s charisma: %v", s.Name, err)
		}
		if err := s.Sprite.Validate(); err != nil {
			t.Errorf("%s sprite: %v", s.Name, err)
		}
		if len(s.CacheSizesMB) == 0 {
			t.Errorf("%s has no cache sizes", s.Name)
		}
	}
}
