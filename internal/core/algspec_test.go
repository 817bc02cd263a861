package core

import (
	"errors"
	"reflect"
	"sort"
	"strings"
	"testing"
)

func TestAlgSpecNames(t *testing.T) {
	cases := []struct {
		spec AlgSpec
		want string
	}{
		{SpecNP, "NP"},
		{SpecOBA, "OBA"},
		{SpecLnAgrOBA, "Ln_Agr_OBA"},
		{SpecISPPM1, "IS_PPM:1"},
		{SpecLnAgrISPPM1, "Ln_Agr_IS_PPM:1"},
		{SpecISPPM3, "IS_PPM:3"},
		{SpecLnAgrISPPM3, "Ln_Agr_IS_PPM:3"},
		{AlgSpec{Kind: AlgOBA, Mode: ModeAggressive, MaxOutstanding: 0}, "Agr_OBA"},
		{AlgSpec{Kind: AlgISPPM, Order: 2, Mode: ModeAggressive, MaxOutstanding: 4}, "K4_Agr_IS_PPM:2"},
		{AlgSpec{Kind: AlgKind(99)}, "unknown(99)"},
	}
	for _, c := range cases {
		if got := c.spec.Name(); got != c.want {
			t.Errorf("Name = %q, want %q", got, c.want)
		}
	}
}

func TestStandardAlgorithmsMatchPaperLegend(t *testing.T) {
	want := []string{"NP", "OBA", "Ln_Agr_OBA", "IS_PPM:1", "Ln_Agr_IS_PPM:1", "IS_PPM:3", "Ln_Agr_IS_PPM:3"}
	got := StandardAlgorithms()
	if len(got) != len(want) {
		t.Fatalf("%d algorithms, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Name() != want[i] {
			t.Errorf("algorithm %d = %q, want %q", i, got[i].Name(), want[i])
		}
	}
}

func TestAggressiveAlgorithms(t *testing.T) {
	got := AggressiveAlgorithms()
	if len(got) != 3 {
		t.Fatalf("%d aggressive algorithms, want 3", len(got))
	}
	for _, s := range got {
		if s.Mode != ModeAggressive || s.MaxOutstanding != 1 {
			t.Errorf("%s is not linear aggressive", s.Name())
		}
	}
}

func TestAlgSpecAblationNamesAndPriority(t *testing.T) {
	s := SpecLnAgrISPPM1
	s.MostProbableLinks = true
	s.NoFallback = true
	s.UserPriorityPrefetch = true
	if got := s.Name(); got != "Ln_Agr_IS_PPM:1[prob][nofb][uprio]" {
		t.Errorf("Name = %q", got)
	}
	// The ablation predictor must carry the switches.
	m, ok := s.NewPredictor().(*ISPPM)
	if !ok {
		t.Fatal("wrong predictor type")
	}
	if m.policy != MostProbableLinkPolicy || !m.noFallback {
		t.Error("ablation switches not applied to the predictor")
	}
}

// TestLookupAlgEveryRegisteredName: every spec in the registry — and
// each aggressive one under every throttle Name renders: adaptive at
// caps 2, 4 and the default, fixed at unlimited, linear and 4 — must
// round-trip through its name to the identical spec, and validate and
// construct.
func TestLookupAlgEveryRegisteredName(t *testing.T) {
	specs := NamedAlgorithms()
	registered := len(specs)
	if names := AlgNames(); len(names) != registered {
		t.Fatalf("AlgNames returned %d names for %d specs", len(names), registered)
	}
	for _, s := range NamedAlgorithms() {
		if s.Mode != ModeAggressive {
			continue
		}
		for _, cap := range []int{2, 4, DefaultAdaptiveCap} {
			s.Adaptive, s.MaxOutstanding = true, cap
			specs = append(specs, s)
		}
		for _, k := range []int{0, 1, 4} {
			s.Adaptive, s.MaxOutstanding = false, k
			specs = append(specs, s)
		}
	}
	seen := make(map[string]bool)
	for i, want := range specs {
		name := want.Name()
		if i < registered && seen[name] {
			t.Errorf("duplicate registered name %q", name)
		}
		seen[name] = true
		spec, err := LookupAlg(name)
		if err != nil {
			t.Errorf("LookupAlg(%q): %v", name, err)
			continue
		}
		if spec != want {
			t.Errorf("LookupAlg(%q) = %+v, want %+v", name, spec, want)
		}
		if err := spec.Validate(); err != nil {
			t.Errorf("registered spec %q does not validate: %v", name, err)
		}
		if spec.Prefetches() && spec.NewPredictor() == nil {
			t.Errorf("registered spec %q constructs a nil predictor", name)
		}
	}
}

// TestLookupAlgUnknownTypedError: a miss must surface as
// *UnknownAlgError carrying the full valid-name list, so -alg error
// messages are actionable.
func TestLookupAlgUnknownTypedError(t *testing.T) {
	wantKnown := AlgNames()
	sort.Strings(wantKnown)
	for _, name := range []string{
		"IS_PPM:9000",
		// Throttle prefixes that name nothing: a cap below 1, a
		// negative degree, no chain to throttle, no predictor to drive,
		// a base no listed entry drives, and second spellings of
		// configurations that have a name already.
		"Ad0_Agr_OBA", "K-1_Agr_OBA", "Ad4_OBA", "Ad4_Agr_NP", "K4_Agr_IS_PPM:2",
		"Ad8_Agr_OBA", "K1_Agr_OBA", "K0_Agr_OBA", "K04_Agr_OBA", "4_Agr_OBA", "Ad_4_Agr_OBA", "_Agr_OBA",
		// Bases no AlgKind builds, bare and under three throttles.
		"Mithril", "Ln_Agr_Markov", "Ad_Agr_Mithril", "K4_Agr_Markov",
	} {
		_, err := LookupAlg(name)
		var ua *UnknownAlgError
		if !errors.As(err, &ua) {
			t.Errorf("LookupAlg(%q): error is %T (%v), want *UnknownAlgError", name, err, err)
			continue
		}
		if ua.Name != name {
			t.Errorf("LookupAlg(%q): Name = %q", name, ua.Name)
		}
		gotKnown := append([]string(nil), ua.Known...)
		sort.Strings(gotKnown)
		if !reflect.DeepEqual(gotKnown, wantKnown) {
			t.Errorf("LookupAlg(%q): Known = %v, want every registered name", name, ua.Known)
		}
		if msg := err.Error(); !strings.Contains(msg, name) || !strings.Contains(msg, "Ln_Agr_IS_PPM:3") {
			t.Errorf("message does not name the offender and the valid set: %q", msg)
		}
	}
}

func TestAlgSpecNewPredictor(t *testing.T) {
	if SpecOBA.NewPredictor().Name() != "OBA" {
		t.Error("OBA predictor wrong")
	}
	if SpecLnAgrISPPM3.NewPredictor().Name() != "IS_PPM:3" {
		t.Error("IS_PPM predictor wrong")
	}
	if !SpecOBA.Prefetches() || SpecNP.Prefetches() {
		t.Error("Prefetches wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("NewPredictor on NP did not panic")
		}
	}()
	SpecNP.NewPredictor()
}
