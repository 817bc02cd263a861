package core

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// AlgKind selects the base predictor of an algorithm configuration.
type AlgKind int

// Base predictors.
const (
	AlgNone     AlgKind = iota // no prefetching (the paper's NP baseline)
	AlgOBA                     // One-Block-Ahead
	AlgISPPM                   // IS_PPM:Order
	AlgBlockPPM                // original block-granularity PPM (related-work baseline)
)

// AlgSpec is one named algorithm configuration from the paper's
// evaluation: a predictor plus how aggressively it is driven.
type AlgSpec struct {
	Kind  AlgKind
	Order int // IS_PPM order; ignored otherwise
	Mode  Mode
	// MaxOutstanding: 1 = linear (the paper's throttle), 0 = unlimited.
	// When Adaptive is set it is the controller's hard cap K instead.
	MaxOutstanding int
	// Adaptive replaces the static throttle with the feedback-directed
	// controller (DegreePolicy): the per-file window starts at 1 and moves
	// within [1, MaxOutstanding] from measured accuracy and timeliness.
	// Only meaningful with ModeAggressive.
	Adaptive bool

	// Ablation switches (all false reproduces the paper's design).

	// MostProbableLinks makes IS_PPM follow the original PPM
	// most-traversed link instead of the most recent one.
	MostProbableLinks bool
	// NoFallback disables IS_PPM's cold-start OBA rule.
	NoFallback bool
	// UserPriorityPrefetch issues prefetch disk reads at user
	// priority instead of the paper's strictly lower one (§4).
	UserPriorityPrefetch bool
}

// Name renders the paper's label for the configuration, with
// bracketed suffixes for any ablation switches.
func (s AlgSpec) Name() string {
	var name string
	switch s.Kind {
	case AlgNone:
		return "NP"
	case AlgOBA, AlgISPPM, AlgBlockPPM:
		base := "OBA"
		switch s.Kind {
		case AlgISPPM:
			base = fmt.Sprintf("IS_PPM:%d", s.Order)
		case AlgBlockPPM:
			base = fmt.Sprintf("BlockPPM:%d", s.Order)
		}
		switch {
		case s.Mode == ModeOneShot:
			name = base
		case s.Adaptive && s.MaxOutstanding == DefaultAdaptiveCap:
			name = "Ad_Agr_" + base
		case s.Adaptive:
			name = fmt.Sprintf("Ad%d_Agr_%s", s.MaxOutstanding, base)
		case s.MaxOutstanding == 1:
			name = "Ln_Agr_" + base
		case s.MaxOutstanding == 0:
			name = "Agr_" + base
		default:
			name = fmt.Sprintf("K%d_Agr_%s", s.MaxOutstanding, base)
		}
	default:
		return fmt.Sprintf("unknown(%d)", int(s.Kind))
	}
	if s.MostProbableLinks {
		name += "[prob]"
	}
	if s.NoFallback {
		name += "[nofb]"
	}
	if s.UserPriorityPrefetch {
		name += "[uprio]"
	}
	return name
}

// Validate checks that the configuration is runnable, so a sweep can
// reject a bad specification up front instead of panicking mid-cell.
func (s AlgSpec) Validate() error {
	switch s.Kind {
	case AlgNone, AlgOBA:
	case AlgISPPM, AlgBlockPPM:
		if s.Order < 1 {
			return fmt.Errorf("core: %s needs order >= 1, got %d", s.Name(), s.Order)
		}
	default:
		return fmt.Errorf("core: unknown algorithm kind %d", int(s.Kind))
	}
	if s.MaxOutstanding < 0 {
		return fmt.Errorf("core: %s has negative outstanding limit %d", s.Name(), s.MaxOutstanding)
	}
	if s.Adaptive {
		if s.Mode != ModeAggressive {
			return fmt.Errorf("core: %s is adaptive but not aggressive", s.Name())
		}
		if s.MaxOutstanding < 1 {
			return fmt.Errorf("core: %s is adaptive and needs a hard cap >= 1, got %d", s.Name(), s.MaxOutstanding)
		}
	}
	return nil
}

// NewDegreePolicy builds one file's prefetch window: adaptive from 1
// up to a hard cap of MaxOutstanding when the spec is Adaptive,
// otherwise static at MaxOutstanding, the paper's throttle. Per-file:
// each file needs its own.
func (s AlgSpec) NewDegreePolicy() *DegreePolicy {
	if s.Adaptive {
		return &DegreePolicy{cap: s.MaxOutstanding, adaptive: true, degree: 1}
	}
	return &DegreePolicy{cap: s.MaxOutstanding, degree: s.MaxOutstanding}
}

// Prefetches reports whether the configuration prefetches at all.
func (s AlgSpec) Prefetches() bool { return s.Kind != AlgNone }

// NewPredictor instantiates the configured predictor; it panics for
// AlgNone, which has none.
func (s AlgSpec) NewPredictor() Predictor {
	switch s.Kind {
	case AlgOBA:
		return NewOBA()
	case AlgISPPM:
		m := NewISPPM(s.Order)
		if s.MostProbableLinks {
			m.SetLinkPolicy(MostProbableLinkPolicy)
		}
		m.SetFallback(!s.NoFallback)
		return m
	case AlgBlockPPM:
		return NewBlockPPM(s.Order)
	default:
		panic("core: AlgSpec " + s.Name() + " has no predictor")
	}
}

// Canonical configurations from the paper's figures.
var (
	// SpecNP is the no-prefetching baseline.
	SpecNP = AlgSpec{Kind: AlgNone}
	// SpecOBA is conservative One-Block-Ahead. One-shot algorithms
	// prefetch their whole predicted batch in parallel: the paper's
	// linear (one-at-a-time) throttle is introduced specifically for
	// the aggressive variants (§3.2).
	SpecOBA = AlgSpec{Kind: AlgOBA, Mode: ModeOneShot, MaxOutstanding: 0}
	// SpecLnAgrOBA is linear aggressive OBA.
	SpecLnAgrOBA = AlgSpec{Kind: AlgOBA, Mode: ModeAggressive, MaxOutstanding: 1}
	// SpecISPPM1 is the non-aggressive 1st-order predictor.
	SpecISPPM1 = AlgSpec{Kind: AlgISPPM, Order: 1, Mode: ModeOneShot, MaxOutstanding: 0}
	// SpecLnAgrISPPM1 is linear aggressive IS_PPM:1.
	SpecLnAgrISPPM1 = AlgSpec{Kind: AlgISPPM, Order: 1, Mode: ModeAggressive, MaxOutstanding: 1}
	// SpecISPPM3 is the non-aggressive 3rd-order predictor.
	SpecISPPM3 = AlgSpec{Kind: AlgISPPM, Order: 3, Mode: ModeOneShot, MaxOutstanding: 0}
	// SpecLnAgrISPPM3 is linear aggressive IS_PPM:3.
	SpecLnAgrISPPM3 = AlgSpec{Kind: AlgISPPM, Order: 3, Mode: ModeAggressive, MaxOutstanding: 1}

	// Adaptive variants: the same chains, but the per-file window is
	// feedback-controlled within [1, DefaultAdaptiveCap] instead of
	// pinned at 1. These go beyond the paper (ROADMAP).

	// SpecAdAgrOBA is adaptive aggressive OBA.
	SpecAdAgrOBA = AlgSpec{Kind: AlgOBA, Mode: ModeAggressive, MaxOutstanding: DefaultAdaptiveCap, Adaptive: true}
	// SpecAdAgrISPPM1 is adaptive aggressive IS_PPM:1.
	SpecAdAgrISPPM1 = AlgSpec{Kind: AlgISPPM, Order: 1, Mode: ModeAggressive, MaxOutstanding: DefaultAdaptiveCap, Adaptive: true}
	// SpecAdAgrISPPM3 is adaptive aggressive IS_PPM:3.
	SpecAdAgrISPPM3 = AlgSpec{Kind: AlgISPPM, Order: 3, Mode: ModeAggressive, MaxOutstanding: DefaultAdaptiveCap, Adaptive: true}
)

// StandardAlgorithms returns the seven configurations every figure of
// the paper sweeps, in the paper's legend order.
func StandardAlgorithms() []AlgSpec {
	return []AlgSpec{
		SpecNP,
		SpecOBA,
		SpecLnAgrOBA,
		SpecISPPM1,
		SpecLnAgrISPPM1,
		SpecISPPM3,
		SpecLnAgrISPPM3,
	}
}

// NamedAlgorithms returns every configuration addressable by name:
// the standard seven plus the unthrottled aggressive variants, the
// block-granularity PPM baseline, and the adaptive variants. LookupAlg
// resolves these names (and any other throttle over the same bases),
// -list-algs prints them, and the conformance suite runs every entry.
func NamedAlgorithms() []AlgSpec {
	return append(StandardAlgorithms(),
		AlgSpec{Kind: AlgOBA, Mode: ModeAggressive, MaxOutstanding: 0},
		AlgSpec{Kind: AlgISPPM, Order: 1, Mode: ModeAggressive, MaxOutstanding: 0},
		AlgSpec{Kind: AlgISPPM, Order: 3, Mode: ModeAggressive, MaxOutstanding: 0},
		AlgSpec{Kind: AlgBlockPPM, Order: 1, Mode: ModeAggressive, MaxOutstanding: 1},
		SpecAdAgrOBA,
		SpecAdAgrISPPM1,
		SpecAdAgrISPPM3,
	)
}

// UnknownAlgError reports a LookupAlg miss. It carries the full list
// of valid names so command-line surfaces can print an actionable
// message instead of a bare "unknown algorithm".
type UnknownAlgError struct {
	Name  string
	Known []string
}

// Error lists the valid names, sorted, after the offending one.
func (e *UnknownAlgError) Error() string {
	known := append([]string(nil), e.Known...)
	sort.Strings(known)
	return fmt.Sprintf("unknown algorithm %q (valid: %s)", e.Name, strings.Join(known, ", "))
}

// LookupAlg resolves an algorithm name to its configuration: every
// NamedAlgorithms entry ("NP", "OBA", "Ln_Agr_IS_PPM:3", ...), and
// every throttle Name renders — Agr_, Ln_Agr_, K<k>_Agr_, Ad_Agr_,
// Ad<K>_Agr_ — over any base predictor a listed entry drives
// aggressively, so the label a cell prints is the name that selects
// it. A miss returns an *UnknownAlgError naming the listed
// configurations.
func LookupAlg(name string) (AlgSpec, error) {
	named := NamedAlgorithms()
	for _, s := range named {
		if s.Name() == name {
			return s, nil
		}
	}
	if throttle, _, ok := strings.Cut(name, "Agr_"); ok {
		if adaptive, k, ok := parseThrottle(throttle); ok {
			for _, s := range named {
				if s.Mode != ModeAggressive {
					continue
				}
				s.Adaptive, s.MaxOutstanding = adaptive, k
				// Name spells each configuration one way (no K1, K0,
				// Ad8 or K04) and Validate bounds the number.
				if s.Name() == name && s.Validate() == nil {
					return s, nil
				}
			}
		}
	}
	return AlgSpec{}, &UnknownAlgError{Name: name, Known: AlgNames()}
}

// parseThrottle reads what Name puts before "Agr_" back into the
// Adaptive and MaxOutstanding fields it came from.
func parseThrottle(prefix string) (adaptive bool, k int, ok bool) {
	switch prefix {
	case "":
		return false, 0, true
	case "Ln_":
		return false, 1, true
	case "Ad_":
		return true, DefaultAdaptiveCap, true
	}
	digits, adaptive := strings.CutPrefix(prefix, "Ad")
	if !adaptive {
		digits = strings.TrimPrefix(prefix, "K")
	}
	k, err := strconv.Atoi(strings.TrimSuffix(digits, "_"))
	return adaptive, k, err == nil
}

// AlgNames returns the names of every named configuration, in order.
func AlgNames() []string {
	specs := NamedAlgorithms()
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Name()
	}
	return out
}

// AggressiveAlgorithms returns the three linear aggressive
// configurations plotted as bars in Figures 8–11 and the columns of
// Table 2 (plus NP as their reference line).
func AggressiveAlgorithms() []AlgSpec {
	return []AlgSpec{SpecLnAgrOBA, SpecLnAgrISPPM1, SpecLnAgrISPPM3}
}
