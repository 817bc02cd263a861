package workload

import (
	"math"
	"reflect"
	"testing"
)

// TestCDNSameSeedReproducible: generation must be a pure function of
// the parameters.
func TestCDNSameSeedReproducible(t *testing.T) {
	a, err := GenerateCDN(DefaultCDNParams())
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateCDN(DefaultCDNParams())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different CDN traces")
	}
	p := DefaultCDNParams()
	p.Seed = 2
	c, err := GenerateCDN(p)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical CDN traces")
	}
}

// TestCDNValidates: the generated trace must pass the trace
// consistency checks for its own machine size.
func TestCDNValidates(t *testing.T) {
	p := DefaultCDNParams()
	tr, err := GenerateCDN(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(p.Nodes, p.BlockSize); err != nil {
		t.Fatal(err)
	}
	if got, want := tr.TotalSteps(), p.Clients*p.PagesPerClient*(1+p.AssetsPerPage); got != want {
		t.Fatalf("TotalSteps = %d, want %d", got, want)
	}
}

// TestCDNZipfPopularity chi-squared-tests root-object popularity
// against the configured Zipf mass. Single-block objects on a single
// volume with no asset groups make every step a root pick and the
// block number the object's Zipf index.
func TestCDNZipfPopularity(t *testing.T) {
	const objects = 50
	const s = 1.1
	p := DefaultCDNParams()
	p.Volumes = 1
	p.ObjectsPerVolume = objects
	p.MaxObjectBlocks = 1
	p.AssetsPerPage = 0
	p.ZipfSkew = s
	p.Clients = 50
	p.PagesPerClient = 2000
	tr, err := GenerateCDN(p)
	if err != nil {
		t.Fatal(err)
	}

	counts := make([]int, objects)
	n := 0
	for _, proc := range tr.Procs {
		for _, st := range proc.Steps {
			counts[st.Offset/p.BlockSize]++
			n++
		}
	}

	var hsum float64
	for i := 1; i <= objects; i++ {
		hsum += 1 / math.Pow(float64(i), s)
	}
	var chi2 float64
	for i := 1; i <= objects; i++ {
		exp := float64(n) / math.Pow(float64(i), s) / hsum
		d := float64(counts[i-1]) - exp
		chi2 += d * d / exp
	}
	// Chi-squared critical value for df=49 at alpha=0.001 is ~85.4.
	if chi2 > 85.4 {
		t.Fatalf("chi-squared = %.1f against Zipf(s=%v), want < 85.4", chi2, s)
	}
	ratio := float64(counts[0]) / float64(counts[1])
	if want := math.Pow(2, s); math.Abs(ratio-want) > 0.25*want {
		t.Fatalf("p(rank1)/p(rank2) = %.2f, want ~%.2f", ratio, want)
	}
}

// TestCDNPageGroupsAreStable: the same root must pull the same asset
// set every time — the stability Mithril/Markov mine. Collected over
// the whole trace, each root's observed successor multiset must be one
// fixed group of AssetsPerPage objects.
func TestCDNPageGroupsAreStable(t *testing.T) {
	p := DefaultCDNParams()
	p.Volumes = 1
	p.MaxObjectBlocks = 1
	tr, err := GenerateCDN(p)
	if err != nil {
		t.Fatal(err)
	}
	span := 1 + p.AssetsPerPage
	groups := make(map[int64]map[int64]bool)
	for _, proc := range tr.Procs {
		for i := 0; i+span <= len(proc.Steps); i += span {
			root := proc.Steps[i].Offset / p.BlockSize
			g := groups[root]
			if g == nil {
				g = make(map[int64]bool)
				groups[root] = g
			}
			for _, st := range proc.Steps[i+1 : i+span] {
				g[st.Offset/p.BlockSize] = true
			}
		}
	}
	for root, g := range groups {
		if len(g) > p.AssetsPerPage {
			t.Fatalf("root %d pulled %d distinct assets, group size is %d — page groups not stable",
				root, len(g), p.AssetsPerPage)
		}
	}
}

// TestCDNValidateRejects: parameter validation must catch degenerate
// shapes.
func TestCDNValidateRejects(t *testing.T) {
	bad := []func(*CDNParams){
		func(p *CDNParams) { p.Volumes = 0 },
		func(p *CDNParams) { p.ObjectsPerVolume = 1 },
		func(p *CDNParams) { p.MaxObjectBlocks = 0 },
		func(p *CDNParams) { p.ZipfSkew = 0 },
		func(p *CDNParams) { p.AssetsPerPage = -1 },
		func(p *CDNParams) { p.Clients = 0 },
		func(p *CDNParams) { p.BlockSize = 0 },
	}
	for i, mutate := range bad {
		p := DefaultCDNParams()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d validated", i)
		}
	}
}
