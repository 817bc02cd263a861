package experiment

import (
	"testing"

	"repro/internal/core"
)

func TestSmokeCells(t *testing.T) {
	s := TinyScale()
	for _, c := range []Cell{
		{FS: PAFS, Workload: Charisma, Alg: core.SpecNP, CacheMB: 4},
		{FS: PAFS, Workload: Charisma, Alg: core.SpecLnAgrOBA, CacheMB: 4},
		{FS: PAFS, Workload: Charisma, Alg: core.SpecLnAgrISPPM1, CacheMB: 4},
		{FS: XFS, Workload: Sprite, Alg: core.SpecNP, CacheMB: 4},
		{FS: XFS, Workload: Sprite, Alg: core.SpecLnAgrISPPM1, CacheMB: 4},
	} {
		r, err := runCell(s, c)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%-40s read=%7.3fms disk=%7d hit=%.2f pf=%6d fb=%.2f mis=%.2f T=%7.3fs reads=%d\n",
			c, r.AvgReadMs, r.DiskAccesses, r.HitRatio, r.PrefetchIssued, r.FallbackFraction, r.MispredictionRatio, r.SimTime.Seconds(), r.Reads)
	}
}
