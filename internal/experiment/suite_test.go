package experiment

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

func TestSuiteRenderAllContainsEverything(t *testing.T) {
	suite := NewSuite(TinyScale(), 0)
	var progress bytes.Buffer
	suite.Progress = &progress
	out, err := suite.RenderAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"Table 1", "paper Fig. 4", "paper Fig. 5", "paper Fig. 6",
		"paper Fig. 7", "paper Fig. 8", "paper Fig. 9", "paper Fig. 10",
		"paper Fig. 11", "paper Table 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("RenderAll missing %q", want)
		}
	}
	// Progress lines: one per (workload, fs) sweep.
	if got := strings.Count(progress.String(), "running"); got != 4 {
		t.Errorf("%d progress lines, want 4", got)
	}
}

func TestSummaryByAlg(t *testing.T) {
	suite := NewSuite(TinyScale(), 0)
	m, err := suite.Matrix(PAFS, Sprite)
	if err != nil {
		t.Fatal(err)
	}
	out := SummaryByAlg(m)
	if !strings.Contains(out, "Sprite on PAFS") {
		t.Error("summary header missing")
	}
	for _, alg := range []string{"NP", "Ln_Agr_IS_PPM:3"} {
		if !strings.Contains(out, alg) {
			t.Errorf("summary missing %s", alg)
		}
	}
	if !strings.Contains(out, "read=") || !strings.Contains(out, "disk=") {
		t.Error("summary metrics missing")
	}
}

func TestMustGetPanicsOnMissing(t *testing.T) {
	m := &Matrix{Results: map[string]map[int]Result{}}
	defer func() {
		if recover() == nil {
			t.Error("MustGet did not panic")
		}
	}()
	m.MustGet("NP", 1)
}

func TestRunTraceRejectsMismatchedMachine(t *testing.T) {
	s := TinyScale()
	tr, mach, err := s.Trace(Sprite)
	if err != nil {
		t.Fatal(err)
	}
	mach.Nodes = 1 // trace uses more nodes
	cell := Cell{FS: PAFS, Workload: Sprite, Alg: core.SpecNP, CacheMB: 1}
	if _, err := RunTrace(tr, mach, cell, 0); err == nil {
		t.Error("trace on too-small machine accepted")
	}
}

func TestRunTraceMatchesRunCell(t *testing.T) {
	s := TinyScale()
	tr, mach, err := s.Trace(Sprite)
	if err != nil {
		t.Fatal(err)
	}
	cell := Cell{FS: PAFS, Workload: Sprite, Alg: core.SpecLnAgrOBA, CacheMB: 4}
	direct, err := runCell(s, cell)
	if err != nil {
		t.Fatal(err)
	}
	viaTrace, err := RunTrace(tr, mach, cell, s.WarmFraction)
	if err != nil {
		t.Fatal(err)
	}
	if direct != viaTrace {
		t.Error("RunTrace with the generated trace differs from the cell RunCells runs")
	}
}

// TestTraceFileRoundTrip is the tracegen → lapsim -trace path for every
// workload: a trace written out and read back, run on the machine
// Scale.Trace names for its workload, must reproduce RunCells field for
// field. It fails if a replay picks its machine any other way.
func TestTraceFileRoundTrip(t *testing.T) {
	s := TinyScale()
	for _, wl := range []WorkloadKind{Charisma, Sprite} {
		tr, mach, err := s.Trace(wl)
		if err != nil {
			t.Fatal(err)
		}
		want := s.NOW
		if wl == Charisma {
			want = s.PM
		}
		if mach != want {
			t.Errorf("%s: Scale.Trace names machine %s, want %s", wl, mach.Name, want.Name)
		}
		var file bytes.Buffer
		if err := workload.Encode(&file, tr); err != nil {
			t.Fatal(err)
		}
		decoded, err := workload.Decode(&file)
		if err != nil {
			t.Fatal(err)
		}
		cell := Cell{FS: PAFS, Workload: wl, Alg: core.SpecLnAgrISPPM1, CacheMB: 1}
		direct, err := runCell(s, cell)
		if err != nil {
			t.Fatal(err)
		}
		replayed, err := RunTrace(decoded, mach, cell, s.WarmFraction)
		if err != nil {
			t.Fatal(err)
		}
		if direct != replayed {
			t.Errorf("%s: replayed trace file differs from RunCells:\ngenerated: %+v\nreplayed:  %+v", wl, direct, replayed)
		}
	}
}

func TestParseNames(t *testing.T) {
	for _, name := range []string{"full", "small", "tiny"} {
		if s, err := ScaleByName(name); err != nil || s.Name != name {
			t.Errorf("ScaleByName(%q) = scale %q, %v", name, s.Name, err)
		}
	}
	for name, want := range map[string]WorkloadKind{
		"charisma": Charisma, "sprite": Sprite, "CHARISMA": Charisma, "Sprite": Sprite,
	} {
		if got, err := ParseWorkload(name); err != nil || got != want {
			t.Errorf("ParseWorkload(%q) = %v, %v", name, got, err)
		}
	}
	for name, want := range map[string]FSKind{"pafs": PAFS, "xfs": XFS, "PAFS": PAFS, "xFS": XFS} {
		if got, err := ParseFS(name); err != nil || got != want {
			t.Errorf("ParseFS(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ScaleByName("huge"); err == nil {
		t.Error("unknown scale accepted")
	}
	for _, name := range []string{"", "cdn", "oltp"} {
		if _, err := ParseWorkload(name); err == nil {
			t.Errorf("workload %q accepted", name)
		}
	}
	if _, err := ParseFS("nfs"); err == nil {
		t.Error("unknown file system accepted")
	}
}

// TestReseeded: the seed of every generator changes and nothing else,
// so the reseeded scale draws different traces for the same machines.
func TestReseeded(t *testing.T) {
	s := TinyScale()
	r := s.Reseeded(7)
	if r.Charisma.Seed != 7 || r.Sprite.Seed != 7 {
		t.Errorf("seeds after Reseeded(7): %d %d", r.Charisma.Seed, r.Sprite.Seed)
	}
	r.Charisma.Seed, r.Sprite.Seed = s.Charisma.Seed, s.Sprite.Seed
	if !reflect.DeepEqual(r, s) {
		t.Error("Reseeded changed something other than the seeds")
	}
	if s.Charisma.Seed == 7 {
		t.Error("Reseeded modified its receiver")
	}
}
