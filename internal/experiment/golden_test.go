package experiment

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"testing"

	"repro/internal/core"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata from this run")

// TestGoldenResults pins every field of every Result, through its own
// MarshalJSON, for the tiny scale's file systems × paper workloads ×
// algorithms at 1 and 4 MB, byte for byte: first the standard seven,
// then every other NamedAlgorithms entry and three throttles no name
// lists (K4_Agr_IS_PPM:1, K4_Agr_OBA, Ad4_Agr_IS_PPM:1), so that a
// change to the K>1 and adaptive paths moves lines here too. The
// simulator's event path may be rebuilt freely; no simulated number
// may move without this file being regenerated on purpose (-update).
func TestGoldenResults(t *testing.T) {
	standard := core.StandardAlgorithms()
	others := core.NamedAlgorithms()[len(standard):]
	for _, name := range []string{"K4_Agr_IS_PPM:1", "K4_Agr_OBA", "Ad4_Agr_IS_PPM:1"} {
		alg, err := core.LookupAlg(name)
		if err != nil {
			t.Fatal(err)
		}
		others = append(others, alg)
	}
	var cells []Cell
	for _, algs := range [][]core.AlgSpec{standard, others} {
		for _, fs := range []FSKind{PAFS, XFS} {
			for _, wl := range []WorkloadKind{Charisma, Sprite} {
				for _, alg := range algs {
					for _, mb := range []int{1, 4} {
						cells = append(cells, Cell{FS: fs, Workload: wl, Alg: alg, CacheMB: mb})
					}
				}
			}
		}
	}
	s := TinyScale()
	results, err := RunCells(s.Trace, cells, s.WarmFraction, 2)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	enc := json.NewEncoder(&got)
	for _, r := range results {
		if err := enc.Encode(r); err != nil {
			t.Fatal(err)
		}
	}
	checkGolden(t, "testdata/tiny_results.jsonl", got.Bytes(), cells)
}

// checkGolden compares got, one line per cell, with the golden file
// byte for byte, or rewrites the file under -update.
func checkGolden(t *testing.T, golden string, got []byte, cells []Cell) {
	t.Helper()
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gotLines, wantLines := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := range gotLines {
		if i >= len(wantLines) || !bytes.Equal(gotLines[i], wantLines[i]) {
			t.Fatalf("%s line %d (%s):\n got %s\nwant %s", golden, i+1, cells[min(i, len(cells)-1)], gotLines[i], wantLines[min(i, len(wantLines)-1)])
		}
	}
	t.Fatalf("%s has %d lines, this run produced %d", golden, len(wantLines), len(gotLines))
}

// TestTraceDigests pins the simulator's event stream, not only its
// totals: for sixteen tiny cells ({PAFS, xFS} × {CHARISMA, Sprite} ×
// {NP, Ln_Agr_IS_PPM:1, Ad_Agr_IS_PPM:1, K4_Agr_OBA} at 4 MB) the
// FNV-64a of the JSONLTracer bytes, the record count and the Result's
// JSON line. A reordered event that leaves every count equal passes
// TestGoldenResults and fails here. Regenerate with -update only when
// a simulated event is meant to move.
func TestTraceDigests(t *testing.T) {
	s := TinyScale()
	var (
		cells []Cell
		got   bytes.Buffer
	)
	enc := json.NewEncoder(&got)
	for _, wl := range []WorkloadKind{Charisma, Sprite} {
		tr, mach, err := s.Trace(wl)
		if err != nil {
			t.Fatal(err)
		}
		for _, fs := range []FSKind{PAFS, XFS} {
			for _, name := range []string{"NP", "Ln_Agr_IS_PPM:1", "Ad_Agr_IS_PPM:1", "K4_Agr_OBA"} {
				alg, err := core.LookupAlg(name)
				if err != nil {
					t.Fatal(err)
				}
				c := Cell{FS: fs, Workload: wl, Alg: alg, CacheMB: 4}
				cells = append(cells, c)
				h := fnv.New64a()
				tracer := NewJSONLTracer(h)
				r, err := RunTraceObserved(tr, mach, c, s.WarmFraction, tracer)
				if err != nil {
					t.Fatal(err)
				}
				if err := tracer.Err(); err != nil {
					t.Fatal(err)
				}
				if err := enc.Encode(struct {
					Cell    string `json:"cell"`
					Digest  string `json:"trace_fnv64a"`
					Records uint64 `json:"trace_records"`
					Result  Result `json:"result"`
				}{c.String(), fmt.Sprintf("%016x", h.Sum64()), tracer.Records(), r}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	checkGolden(t, "testdata/trace_digests.jsonl", got.Bytes(), cells)
}
