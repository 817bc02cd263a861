package experiment

import (
	"strings"
	"testing"
)

func TestAblationsEnumeration(t *testing.T) {
	abs := Ablations()
	studies := make(map[string]int)
	names := make(map[string]bool)
	for _, ab := range abs {
		studies[ab.Study]++
		key := ab.Study + "/" + ab.Variant
		if names[key] {
			t.Errorf("duplicate ablation %s", key)
		}
		names[key] = true
	}
	want := map[string]int{
		"linearity": 4, "linkPolicy": 2, "order": 4,
		"priority": 2, "fallback": 2, "modelling": 2, "cooperation": 4,
	}
	for study, n := range want {
		if studies[study] != n {
			t.Errorf("study %s has %d variants, want %d", study, studies[study], n)
		}
	}
}

func TestAblationBaselineIsPaperConfig(t *testing.T) {
	for _, ab := range Ablations() {
		switch ab.Variant {
		case "linear1", "mostRecent", "order1", "lowPriority", "withFallback", "intervalSize":
			if ab.Cell.Alg.Name() != "Ln_Agr_IS_PPM:1" {
				t.Errorf("%s/%s baseline is %s, want Ln_Agr_IS_PPM:1",
					ab.Study, ab.Variant, ab.Cell.Alg.Name())
			}
		}
	}
}

func TestRunAblationsRenders(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every ablation cell")
	}
	out, err := RunAblations(TinyScale())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"linearity", "unlimited", "mostProbable", "order4",
		"userPriority", "noFallback", "blockPPM", "read(ms)",
		"cooperation", "noForwarding", "nChance4",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("ablation table missing %q", want)
		}
	}
}
