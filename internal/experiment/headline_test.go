package experiment

import (
	"testing"

	"repro/internal/core"
)

// TestHeadlineResultHolds locks in the paper's central claim as a
// regression test: linear aggressive prefetching substantially beats
// no prefetching on the parallel workload. If a change to the
// simulator, the cache, the driver or the workload breaks this, the
// suite fails loudly rather than silently producing a flat figure.
func TestHeadlineResultHolds(t *testing.T) {
	s := TinyScale()
	np, err := runCell(s, Cell{FS: PAFS, Workload: Charisma, Alg: core.SpecNP, CacheMB: 16})
	if err != nil {
		t.Fatal(err)
	}
	agr, err := runCell(s, Cell{FS: PAFS, Workload: Charisma, Alg: core.SpecLnAgrISPPM1, CacheMB: 16})
	if err != nil {
		t.Fatal(err)
	}
	if agr.AvgReadMs >= np.AvgReadMs/1.5 {
		t.Errorf("headline result lost: NP %.3f ms vs Ln_Agr_IS_PPM:1 %.3f ms (want >=1.5x)",
			np.AvgReadMs, agr.AvgReadMs)
	}
	if agr.HitRatio <= np.HitRatio {
		t.Errorf("prefetching did not raise the hit ratio: %.3f vs %.3f",
			agr.HitRatio, np.HitRatio)
	}
}

// TestSpriteHeadlineHolds does the same for the NOW workload.
func TestSpriteHeadlineHolds(t *testing.T) {
	s := TinyScale()
	np, err := runCell(s, Cell{FS: PAFS, Workload: Sprite, Alg: core.SpecNP, CacheMB: 4})
	if err != nil {
		t.Fatal(err)
	}
	agr, err := runCell(s, Cell{FS: PAFS, Workload: Sprite, Alg: core.SpecLnAgrISPPM1, CacheMB: 4})
	if err != nil {
		t.Fatal(err)
	}
	if agr.AvgReadMs >= np.AvgReadMs/1.3 {
		t.Errorf("Sprite headline lost: NP %.3f ms vs Ln_Agr_IS_PPM:1 %.3f ms",
			np.AvgReadMs, agr.AvgReadMs)
	}
}

// TestLinearBeatsUnlimitedOnDiskTraffic locks in the paper's §3.2
// motivation: the linear throttle keeps disk traffic far below the
// unthrottled aggressive variant.
func TestLinearBeatsUnlimitedOnDiskTraffic(t *testing.T) {
	s := TinyScale()
	lin, err := runCell(s, Cell{FS: PAFS, Workload: Charisma, Alg: core.SpecLnAgrISPPM1, CacheMB: 1})
	if err != nil {
		t.Fatal(err)
	}
	unl := core.SpecLnAgrISPPM1
	unl.MaxOutstanding = 0
	unlimited, err := runCell(s, Cell{FS: PAFS, Workload: Charisma, Alg: unl, CacheMB: 1})
	if err != nil {
		t.Fatal(err)
	}
	if unlimited.PrefetchIssued <= lin.PrefetchIssued {
		t.Errorf("unlimited aggression issued %d prefetches vs linear %d; the throttle does nothing",
			unlimited.PrefetchIssued, lin.PrefetchIssued)
	}
}
