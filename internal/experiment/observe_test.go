package experiment

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/workload"
)

// TestLinearityHighWater verifies the paper's central structural claim
// (§4) on live runs: PAFS's one-server-per-file design keeps at most
// one prefetch outstanding per file machine-wide, while xFS's per-node
// chains overlap on shared files and push the aggregate above one.
func TestLinearityHighWater(t *testing.T) {
	s := TinyScale()
	for _, c := range []Cell{
		{FS: PAFS, Workload: Charisma, Alg: core.SpecLnAgrOBA, CacheMB: 1},
		{FS: PAFS, Workload: Charisma, Alg: core.SpecLnAgrOBA, CacheMB: 4},
		{FS: PAFS, Workload: Charisma, Alg: core.SpecLnAgrISPPM1, CacheMB: 4},
		{FS: PAFS, Workload: Sprite, Alg: core.SpecLnAgrOBA, CacheMB: 4},
		{FS: PAFS, Workload: Sprite, Alg: core.SpecLnAgrISPPM3, CacheMB: 16},
	} {
		r, err := runCell(s, c)
		if err != nil {
			t.Fatal(err)
		}
		if r.PrefetchIssued == 0 {
			t.Errorf("%s: no prefetches issued, linearity check vacuous", c)
		}
		if r.MaxFilePrefetchHW > 1 {
			t.Errorf("%s: per-file outstanding high-water = %d, want <= 1", c, r.MaxFilePrefetchHW)
		}
	}

	// CHARISMA's shared files are read by several nodes at once, so
	// xFS's independent per-node drivers must overlap.
	c := Cell{FS: XFS, Workload: Charisma, Alg: core.SpecLnAgrOBA, CacheMB: 4}
	r, err := runCell(s, c)
	if err != nil {
		t.Fatal(err)
	}
	if r.MaxFilePrefetchHW <= 1 {
		t.Errorf("%s: aggregate outstanding high-water = %d, want > 1 (per-node chains should overlap)",
			c, r.MaxFilePrefetchHW)
	}
}

// TestSparseFileIDs runs the tiny CHARISMA trace with its files
// renumbered f → 1000·f + 7, in FileBlocks and in every step: no
// per-file table of the simulator may be indexed by FileID, so a PAFS
// and an xFS cell both run to completion, and PAFS still keeps one
// prefetch in flight per file.
func TestSparseFileIDs(t *testing.T) {
	tr, mach, err := TinyScale().Trace(Charisma)
	if err != nil {
		t.Fatal(err)
	}
	sparse := func(f blockdev.FileID) blockdev.FileID { return 1000*f + 7 }
	renumbered := &workload.Trace{Name: tr.Name, FileBlocks: make(map[blockdev.FileID]blockdev.BlockNo, len(tr.FileBlocks))}
	for f, blocks := range tr.FileBlocks {
		renumbered.FileBlocks[sparse(f)] = blocks
	}
	for _, p := range tr.Procs {
		steps := slices.Clone(p.Steps)
		for i := range steps {
			steps[i].File = sparse(steps[i].File)
		}
		renumbered.Procs = append(renumbered.Procs, workload.Process{Node: p.Node, Steps: steps})
	}
	for _, fs := range []FSKind{PAFS, XFS} {
		c := Cell{FS: fs, Workload: Charisma, Alg: core.SpecLnAgrISPPM1, CacheMB: 4}
		r, err := RunTrace(renumbered, mach, c, TinyScale().WarmFraction)
		if err != nil {
			t.Fatalf("%s: %v", c, err)
		}
		if r.Reads == 0 || r.PrefetchIssued == 0 {
			t.Errorf("%s: %d reads and %d prefetches issued, want some of each", c, r.Reads, r.PrefetchIssued)
		}
		if fs == PAFS && r.MaxFilePrefetchHW != 1 {
			t.Errorf("%s: max_file_prefetch_outstanding = %d, want 1", c, r.MaxFilePrefetchHW)
		}
	}
}

// TestGoldenObservability pins the timeliness and utilization counters
// of three tiny cells. Any change to these numbers means the
// simulation or its instrumentation changed behaviour and the paper
// figures need regenerating.
func TestGoldenObservability(t *testing.T) {
	s := TinyScale()
	for _, g := range []struct {
		cell                         Cell
		timely, late, wasted, unused uint64
		hw                           int
		events                       uint64
	}{
		{
			cell:   Cell{FS: PAFS, Workload: Charisma, Alg: core.SpecLnAgrOBA, CacheMB: 1},
			timely: 247, late: 2, wasted: 126, unused: 114, hw: 1, events: 7011,
		},
		{
			cell:   Cell{FS: XFS, Workload: Charisma, Alg: core.SpecLnAgrOBA, CacheMB: 4},
			timely: 215, late: 7, wasted: 1, unused: 591, hw: 2, events: 6529,
		},
		{
			cell:   Cell{FS: XFS, Workload: Sprite, Alg: core.SpecLnAgrOBA, CacheMB: 4},
			timely: 244, late: 16, wasted: 0, unused: 142, hw: 1, events: 3923,
		},
	} {
		r, err := runCell(s, g.cell)
		if err != nil {
			t.Fatal(err)
		}
		if r.PrefetchTimely != g.timely || r.PrefetchLate != g.late ||
			r.PrefetchWasted != g.wasted || r.PrefetchUnusedAtEnd != g.unused ||
			r.MaxFilePrefetchHW != g.hw || r.EventsFired != g.events {
			t.Errorf("%s: got timely=%d late=%d wasted=%d unused=%d hw=%d events=%d,\n"+
				"want timely=%d late=%d wasted=%d unused=%d hw=%d events=%d",
				g.cell, r.PrefetchTimely, r.PrefetchLate, r.PrefetchWasted,
				r.PrefetchUnusedAtEnd, r.MaxFilePrefetchHW, r.EventsFired,
				g.timely, g.late, g.wasted, g.unused, g.hw, g.events)
		}
		if r.DiskUtilization <= 0 || r.DiskUtilization >= 1 {
			t.Errorf("%s: disk utilization %v outside (0,1)", g.cell, r.DiskUtilization)
		}
		if r.DiskPrefetchShare <= 0 || r.DiskPrefetchShare >= 1 {
			t.Errorf("%s: disk prefetch share %v outside (0,1)", g.cell, r.DiskPrefetchShare)
		}
		if r.DiskMaxQueue <= 0 || r.NetMaxQueue <= 0 {
			t.Errorf("%s: queue high-waters disk=%d net=%d, want both > 0",
				g.cell, r.DiskMaxQueue, r.NetMaxQueue)
		}
	}
}

// TestRunDeterministicAcrossWorkers is the parallel-sweep regression
// test: every Result — the paper metrics and the new observability
// counters alike — must be bit-identical whether cells run on one
// worker or eight.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	s := TinyScale()
	s.CacheSizesMB = []int{1, 4}
	algs := []core.AlgSpec{core.SpecNP, core.SpecLnAgrOBA, core.SpecLnAgrISPPM1}

	m1, err := Run(s, PAFS, Charisma, algs, 1)
	if err != nil {
		t.Fatal(err)
	}
	m8, err := Run(s, PAFS, Charisma, algs, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m1.Results, m8.Results) {
		t.Fatalf("results differ between workers=1 and workers=8:\n1: %+v\n8: %+v",
			m1.Results, m8.Results)
	}
	if !reflect.DeepEqual(m1.AlgNames, m8.AlgNames) {
		t.Fatalf("algorithm order differs: %v vs %v", m1.AlgNames, m8.AlgNames)
	}
}

// TestRunStopsDispatchOnFailure checks that a sweep stops burning
// cells after the first failure: with one worker and a first cell
// whose AlgSpec cannot validate, exactly one cell is ever attempted.
func TestRunStopsDispatchOnFailure(t *testing.T) {
	var calls atomic.Int64
	orig := runTrace
	runTrace = func(tr *workload.Trace, mach machine.Config, c Cell, warm float64) (Result, error) {
		calls.Add(1)
		return orig(tr, mach, c, warm)
	}
	defer func() { runTrace = orig }()

	s := TinyScale()
	bad := core.AlgSpec{Kind: core.AlgISPPM, Order: 0, Mode: core.ModeAggressive, MaxOutstanding: 1}
	if bad.Validate() == nil {
		t.Fatal("test spec unexpectedly valid")
	}
	m, err := Run(s, PAFS, Charisma, []core.AlgSpec{bad, core.SpecNP}, 1)
	if err == nil {
		t.Fatal("sweep with invalid algorithm did not fail")
	}
	if m != nil {
		t.Fatal("failed sweep returned a matrix")
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("sweep attempted %d cells after first failure, want 1", n)
	}
}

// TestRunCellsOneTracePerWorkload pins the pool's input contract: each
// distinct workload's trace is asked for once however many cells use
// it, results come back in cell order, and they equal each cell run alone.
func TestRunCellsOneTracePerWorkload(t *testing.T) {
	s := TinyScale()
	asked := make(map[WorkloadKind]int)
	input := func(k WorkloadKind) (*workload.Trace, machine.Config, error) {
		asked[k]++
		return s.Trace(k)
	}
	var cells []Cell
	for _, mb := range []int{1, 4} {
		for _, wl := range []WorkloadKind{Charisma, Sprite} {
			for _, alg := range []core.AlgSpec{core.SpecNP, core.SpecLnAgrOBA} {
				cells = append(cells, Cell{FS: PAFS, Workload: wl, Alg: alg, CacheMB: mb})
			}
		}
	}
	results, err := RunCells(input, cells, s.WarmFraction, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(asked) != 2 || asked[Charisma] != 1 || asked[Sprite] != 1 {
		t.Errorf("traces asked for %v, want CHARISMA and Sprite once each", asked)
	}
	for i, c := range cells {
		want, err := runCell(s, c)
		if err != nil {
			t.Fatal(err)
		}
		if results[i] != want {
			t.Errorf("result %d is not runCell(%s)", i, c)
		}
	}

	bad := s
	bad.Sprite.Nodes = 0
	if _, err := RunCells(bad.Trace, cells, s.WarmFraction, 3); err == nil {
		t.Error("sweep over an ungeneratable workload did not fail")
	}
}

// TestRunRejectsInvalidSpec pins the error path of a cell run.
func TestRunRejectsInvalidSpec(t *testing.T) {
	s := TinyScale()
	_, err := runCell(s, Cell{FS: PAFS, Workload: Charisma,
		Alg: core.AlgSpec{Kind: core.AlgKind(99)}, CacheMB: 4})
	if err == nil {
		t.Fatal("unknown algorithm kind accepted")
	}
}

// TestTracerPassiveAndJSONL runs the same cell bare and with a JSONL
// tracer attached: the Results must be identical (tracing is pure
// observation), the tracer must actually capture records, and both
// JSONL encoders must produce decodable lines with the documented
// keys.
func TestTracerPassiveAndJSONL(t *testing.T) {
	s := TinyScale()
	c := Cell{FS: PAFS, Workload: Charisma, Alg: core.SpecLnAgrOBA, CacheMB: 4}
	tr, err := workload.GenerateCharisma(s.Charisma)
	if err != nil {
		t.Fatal(err)
	}

	bare, err := RunTrace(tr, s.PM, c, s.WarmFraction)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tracer := NewJSONLTracer(&buf)
	traced, err := RunTraceObserved(tr, s.PM, c, s.WarmFraction, tracer)
	if err != nil {
		t.Fatal(err)
	}
	if bare != traced {
		t.Fatalf("tracing changed the result:\nbare:   %+v\ntraced: %+v", bare, traced)
	}
	if err := tracer.Err(); err != nil {
		t.Fatal(err)
	}
	if tracer.Records() == 0 {
		t.Fatal("tracer captured nothing")
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if uint64(len(lines)) != tracer.Records() {
		t.Fatalf("%d JSONL lines for %d records", len(lines), tracer.Records())
	}
	var rec struct {
		AtNs int64  `json:"at_ns"`
		Kind string `json:"kind"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Kind == "" || rec.AtNs <= 0 {
		t.Fatalf("last trace record malformed: %s", lines[len(lines)-1])
	}

	var rbuf bytes.Buffer
	enc := json.NewEncoder(&rbuf)
	for _, r := range []Result{bare, traced} {
		if err := enc.Encode(r); err != nil {
			t.Fatal(err)
		}
	}
	rlines := bytes.Split(bytes.TrimSpace(rbuf.Bytes()), []byte("\n"))
	if len(rlines) != 2 {
		t.Fatalf("got %d result lines, want 2", len(rlines))
	}
	var decoded map[string]any
	if err := json.Unmarshal(rlines[0], &decoded); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"fs", "workload", "algorithm", "cache_mb",
		"prefetch_timely", "prefetch_late", "prefetch_wasted",
		"max_file_prefetch_outstanding", "disk_utilization", "events_fired"} {
		if _, ok := decoded[key]; !ok {
			t.Errorf("result JSONL missing key %q", key)
		}
	}
	if want := `{"fs":"PAFS","workload":"CHARISMA","algorithm":"Ln_Agr_OBA","cache_mb":4,"avg_read_ms":`; !bytes.HasPrefix(rlines[0], []byte(want)) {
		t.Errorf("result JSONL starts %.90s, want %s", rlines[0], want)
	}
	if len(decoded) != 27 {
		t.Errorf("result JSONL has %d keys, want 27", len(decoded))
	}
	if decoded["fs"] != "PAFS" {
		t.Errorf("fs = %v, want PAFS", decoded["fs"])
	}
	if hw, ok := decoded["max_file_prefetch_outstanding"].(float64); !ok || hw != float64(bare.MaxFilePrefetchHW) {
		t.Errorf("exported high-water %v, want %d", decoded["max_file_prefetch_outstanding"], bare.MaxFilePrefetchHW)
	}
}

// errorWriter fails after n bytes, for the sticky-error path.
type errorWriter struct{ n int }

func (w *errorWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errors.New("full")
	}
	w.n -= len(p)
	return len(p), nil
}

func TestJSONLTracerStickyError(t *testing.T) {
	s := TinyScale()
	c := Cell{FS: PAFS, Workload: Charisma, Alg: core.SpecLnAgrOBA, CacheMB: 4}
	tr, err := workload.GenerateCharisma(s.Charisma)
	if err != nil {
		t.Fatal(err)
	}
	tracer := NewJSONLTracer(&errorWriter{n: 256})
	if _, err := RunTraceObserved(tr, s.PM, c, s.WarmFraction, tracer); err != nil {
		t.Fatal(err) // the run itself must not fail
	}
	if tracer.Err() == nil {
		t.Fatal("write error not surfaced")
	}
}
