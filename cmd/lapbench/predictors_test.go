package main

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/experiment"
)

// cellOf builds a synthetic matrix cell with the given avg read time.
func cellOf(wl string, alg core.AlgSpec, ms float64) predCell {
	return predCell{workload: wl, alg: alg, res: experiment.Result{AvgReadMs: ms}}
}

// goodCells is a synthetic matrix that satisfies every win check: the
// classics take charisma and deepseq, Markov takes cdn, Mithril takes
// oltp.
func goodCells() []predCell {
	return []predCell{
		cellOf("charisma", core.SpecNP, 30),
		cellOf("charisma", core.SpecLnAgrOBA, 20),
		cellOf("charisma", core.SpecLnAgrMithril, 25),
		cellOf("charisma", core.SpecLnAgrMarkov, 24),
		cellOf("deepseq", core.SpecNP, 100),
		cellOf("deepseq", core.SpecLnAgrOBA, 10),
		cellOf("deepseq", core.SpecLnAgrMithril, 100),
		cellOf("deepseq", core.SpecLnAgrMarkov, 100),
		cellOf("cdn", core.SpecNP, 12),
		cellOf("cdn", core.SpecLnAgrOBA, 13),
		cellOf("cdn", core.SpecLnAgrMithril, 11.8),
		cellOf("cdn", core.SpecLnAgrMarkov, 11.5),
		cellOf("oltp", core.SpecNP, 3.6),
		cellOf("oltp", core.SpecLnAgrOBA, 4.4),
		cellOf("oltp", core.SpecLnAgrMithril, 3.4),
		cellOf("oltp", core.SpecLnAgrMarkov, 3.5),
	}
}

func mutate(cells []predCell, wl, alg string, ms float64) []predCell {
	out := append([]predCell(nil), cells...)
	for i := range out {
		if out[i].workload == wl && out[i].alg.Name() == alg {
			out[i].res.AvgReadMs = ms
		}
	}
	return out
}

func TestCheckPredictorsAccepts(t *testing.T) {
	if err := checkPredictors(goodCells()); err != nil {
		t.Fatalf("good matrix rejected: %v", err)
	}
}

func TestCheckPredictorsRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  []predCell
		want string
	}{
		{
			// Classic no longer beats NP on charisma — the paper's
			// headline regression.
			"charisma classic loses to NP",
			mutate(goodCells(), "charisma", "Ln_Agr_OBA", 31),
			"did not beat NP",
		},
		{
			// Markov overtakes the classic on charisma — ranking changed.
			"charisma ranking flips",
			mutate(goodCells(), "charisma", "Ln_Agr_Markov", 19),
			"ranking changed",
		},
		{
			// An association predictor wins the sequential scan.
			"deepseq won by Mithril",
			mutate(goodCells(), "deepseq", "Ln_Agr_Mithril", 5),
			"want a classic",
		},
		{
			// Classic takes cdn too — Markov has no winning scenario.
			"markov wins nothing",
			mutate(goodCells(), "cdn", "Ln_Agr_OBA", 11.0),
			"Ln_Agr_Markov won no scenario",
		},
		{
			// Mithril loses oltp to Markov — Mithril has no scenario.
			"mithril wins nothing",
			mutate(goodCells(), "oltp", "Ln_Agr_Markov", 3.3),
			"Ln_Agr_Mithril won no scenario",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := checkPredictors(tc.mut)
			if err == nil {
				t.Fatal("bad matrix accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestDeepSeqTrace pins the control workload: valid against the NOW
// machine shape, strictly sequential per file, and deterministic.
func TestDeepSeqTrace(t *testing.T) {
	s := experiment.TinyScale()
	tr := deepSeqTrace(s.NOW.Nodes, s.NOW.BlockSize)
	if err := tr.Validate(s.NOW.Nodes, s.NOW.BlockSize); err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
	for pi, proc := range tr.Procs {
		last := int64(-1)
		for _, st := range proc.Steps {
			if st.Offset <= last {
				t.Fatalf("proc %d: offset %d not strictly increasing", pi, st.Offset)
			}
			last = st.Offset
		}
	}
	tr2 := deepSeqTrace(s.NOW.Nodes, s.NOW.BlockSize)
	if tr.TotalSteps() != tr2.TotalSteps() || len(tr.Procs) != len(tr2.Procs) {
		t.Fatal("deepseq trace not deterministic")
	}
}

// TestPredictorsTiny drives the whole -exp predictors path at the tiny
// scale: every (workload, algorithm) cell runs through the one pool —
// the three scale workloads and the explicit deepseq trace alike — and
// lands in the table in matrix order, one best line per workload.
func TestPredictorsTiny(t *testing.T) {
	var out bytes.Buffer
	if err := runPredictors(&out, experiment.TinyScale(), 0); err != nil {
		t.Fatal(err)
	}
	var rows []string
	for _, line := range strings.Split(out.String(), "\n") {
		if f := strings.Fields(line); len(f) == 9 && f[0] != "workload" {
			rows = append(rows, f[0]+"/"+f[1])
		}
	}
	var want []string
	for _, wl := range []string{"charisma", "deepseq", "cdn", "oltp"} {
		for _, a := range predAlgs() {
			want = append(want, wl+"/"+a.Name())
		}
		if !strings.Contains(out.String(), fmt.Sprintf("\n%-10s best: ", wl)) {
			t.Errorf("no best line for %s", wl)
		}
	}
	if !reflect.DeepEqual(rows, want) {
		t.Errorf("matrix rows:\n got %v\nwant %v", rows, want)
	}
	// The charisma NP cell is TinyScale's CHARISMA/PAFS/NP/1MB cell.
	np, err := experiment.RunCell(experiment.TinyScale(),
		experiment.Cell{FS: experiment.PAFS, Workload: experiment.Charisma, Alg: core.SpecNP, CacheMB: 1})
	if err != nil {
		t.Fatal(err)
	}
	if row := fmt.Sprintf("%-10s %-18s %9.3f", "charisma", "NP", np.AvgReadMs); !strings.Contains(out.String(), row) {
		t.Errorf("table has no row %q", row)
	}
	if !strings.Contains(out.String(), "win checks skipped at scale tiny") {
		t.Error("tiny-scale run did not say it skipped the win checks")
	}
}
