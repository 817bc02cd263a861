package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(123), NewRNG(123)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("%d/100 identical draws across different seeds", same)
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(7)
	for _, n := range []int{1, 2, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestRNGIntnPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGIntnUniform(t *testing.T) {
	r := NewRNG(11)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	for i, c := range counts {
		f := float64(c) / draws
		if math.Abs(f-0.1) > 0.01 {
			t.Errorf("bucket %d frequency %.4f, want ~0.1", i, f)
		}
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(17)
	const mean, draws = 50.0, 200000
	sum := 0.0
	for i := 0; i < draws; i++ {
		v := r.Exp(mean)
		if v < 0 {
			t.Fatalf("Exp returned negative %v", v)
		}
		sum += v
	}
	got := sum / draws
	if math.Abs(got-mean) > mean*0.02 {
		t.Errorf("Exp mean %.3f, want ~%.1f", got, mean)
	}
}

func TestRNGNormalMoments(t *testing.T) {
	r := NewRNG(23)
	const draws = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < draws; i++ {
		v := r.Normal()
		sum += v
		sumSq += v * v
	}
	mean := sum / draws
	variance := sumSq/draws - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("Normal mean %.4f, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("Normal variance %.4f, want ~1", variance)
	}
}

func TestRNGLogNormalPositive(t *testing.T) {
	r := NewRNG(29)
	for i := 0; i < 10000; i++ {
		if v := r.LogNormal(2, 1); v <= 0 {
			t.Fatalf("LogNormal returned %v", v)
		}
	}
}

func TestRNGBool(t *testing.T) {
	r := NewRNG(31)
	const draws = 100000
	hits := 0
	for i := 0; i < draws; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	f := float64(hits) / draws
	if math.Abs(f-0.3) > 0.01 {
		t.Errorf("Bool(0.3) frequency %.4f", f)
	}
	if r.Bool(0) {
		t.Error("Bool(0) returned true")
	}
}

func TestZipfTableSkew(t *testing.T) {
	tab := NewZipfTable(100, 1.0)
	r := NewRNG(37)
	counts := make([]int, 100)
	const draws = 100000
	for i := 0; i < draws; i++ {
		v := tab.Sample(r)
		if v < 0 || v >= 100 {
			t.Fatalf("Zipf sample %d out of range", v)
		}
		counts[v]++
	}
	if counts[0] <= counts[50] || counts[0] <= counts[99] {
		t.Errorf("Zipf not skewed: counts[0]=%d counts[50]=%d counts[99]=%d",
			counts[0], counts[50], counts[99])
	}
	// With s=1, p(0)/p(1) = 2.
	ratio := float64(counts[0]) / float64(counts[1])
	if ratio < 1.7 || ratio > 2.3 {
		t.Errorf("Zipf p(0)/p(1) = %.2f, want ~2", ratio)
	}
	if len(tab.cum) != 100 {
		t.Errorf("support = %d, want 100", len(tab.cum))
	}
}

func TestZipfTablePanicsOnBadParams(t *testing.T) {
	for _, c := range []struct {
		n int
		s float64
	}{{0, 1}, {-1, 1}, {10, 0}, {10, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewZipfTable(%d, %v) did not panic", c.n, c.s)
				}
			}()
			NewZipfTable(c.n, c.s)
		}()
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	parent := NewRNG(55)
	child := parent.Split()
	// The child stream must not merely replay the parent stream.
	same := 0
	for i := 0; i < 100; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("%d/100 identical draws between parent and child", same)
	}
}

// Property: Intn never escapes its bound for arbitrary positive n.
func TestRNGIntnBoundProperty(t *testing.T) {
	r := NewRNG(61)
	f := func(n uint16) bool {
		bound := int(n%1000) + 1
		v := r.Intn(bound)
		return v >= 0 && v < bound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestMul64(t *testing.T) {
	cases := []struct{ a, b, hi, lo uint64 }{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{math.MaxUint64, 2, 1, math.MaxUint64 - 1},
		{1 << 32, 1 << 32, 1, 0},
	}
	for _, c := range cases {
		hi, lo := mul64(c.a, c.b)
		if hi != c.hi || lo != c.lo {
			t.Errorf("mul64(%d,%d) = (%d,%d), want (%d,%d)", c.a, c.b, hi, lo, c.hi, c.lo)
		}
	}
}
