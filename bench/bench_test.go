package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
	"slices"
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/cluster"
	"repro/internal/lapcache"
)

// Same seed, same operations; another seed, other operations.
func TestOpStreamsAreDeterministic(t *testing.T) {
	sources := map[string]func(seed uint64) opSource{
		"hit_fanin": func(seed uint64) opSource {
			return newScanSources(seed, fanConns*fanReadersPerCon, fanFiles, fanBlocks)[3]
		},
		"seq_prefetch": func(seed uint64) opSource { return newSegSource(seed, 1, seqOwnFiles(1), seqBlocks) },
		"coop_mixed":   func(seed uint64) opSource { return newCoopSource(seed, 1) },
	}
	streams := map[string]func(seed uint64) []op{
		"seq_prefetch warm-up": func(seed uint64) []op { return trainingOps(seed, 1, seqOwnFiles(1)) },
	}
	for name, mk := range sources {
		streams[name] = func(seed uint64) []op { return take(mk(seed), 3000) }
	}
	for name, mk := range streams {
		a, b, c := mk(7), mk(7), mk(8)
		if !slices.Equal(a, b) {
			t.Errorf("%s: two streams of seed 7 differ", name)
		}
		if slices.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 give the same stream", name)
		}
	}
}

// Every seq_prefetch cycle has the same number of reads of each shape
// and ends, and only ends, on its last operation.
func TestSeqPrefetchCyclesHaveFixedMix(t *testing.T) {
	src := newSegSource(3, 0, seqOwnFiles(0), seqBlocks)
	for cycle := 0; cycle < 20; cycle++ {
		reads, closes := 0, 0
		for {
			o := src.next()
			if o.block < 0 || o.block >= seqBlocks {
				t.Fatalf("cycle %d: block %d outside the file", cycle, o.block)
			}
			if o.kind == opClose {
				closes++
			} else {
				reads++
			}
			if o.last {
				break
			}
		}
		if reads != cycleReads || closes != 10 {
			t.Fatalf("cycle %d: %d reads, %d closes; want %d, 10", cycle, reads, closes, cycleReads)
		}
	}
}

func TestSimInputsAreDeterministic(t *testing.T) {
	fingerprint := func(seed uint64) string {
		in, err := buildSimInputs(seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Two short cells are enough to tell traces apart.
		var jobs []simJob
		for _, j := range in.jobs {
			if j.group() == "pafs_sprite" && j.cell.CacheMB == 1 && len(jobs) < 2 {
				jobs = append(jobs, j)
			}
		}
		res := sweep(jobs, in.warm, nil)
		for _, err := range res.errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		return fmt.Sprintf("%+v", res.results)
	}
	a, b, c := fingerprint(5), fingerprint(5), fingerprint(6)
	if a != b {
		t.Error("two runs of seed 5 simulate differently")
	}
	if a == c {
		t.Error("seeds 5 and 6 simulate identically")
	}
}

// The pinning helper puts file i on the member asked for, for any
// ring: here, rank r on node r mod 3 under arbitrary ports.
func TestPinFilesPlacesEveryRank(t *testing.T) {
	r := newRNG(42)
	for trial := 0; trial < 20; trial++ {
		var members []string
		for len(members) < 3 {
			addr := fmt.Sprintf("127.0.0.1:%d", 1024+r.intn(64000))
			if !slices.Contains(members, addr) {
				members = append(members, addr)
			}
		}
		ring, err := cluster.NewRing(members, 0)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]string, 96)
		for i := range want {
			want[i] = members[i%3]
		}
		ids := pinFiles(ring.Owner, want)
		seen := map[blockdev.FileID]bool{}
		for i, id := range ids {
			if id < 1 || seen[id] {
				t.Fatalf("members %v: file %d got ID %d (zero or used twice)", members, i, id)
			}
			seen[id] = true
			if got := ring.Owner(id); got != want[i] {
				t.Fatalf("members %v: file %d (ID %d) is owned by %s, want %s", members, i, id, got, want[i])
			}
		}
	}
}

func TestPercentileAgainstSortedReference(t *testing.T) {
	r := newRNG(9)
	for _, n := range []int{1, 2, 3, 10, 84, 1000} {
		v := make([]uint32, n)
		for i := range v {
			v[i] = uint32(r.intn(1 << 20))
		}
		slices.Sort(v)
		for _, p := range []float64{1, 50, 90, 99, 99.9, 100} {
			// Reference: the smallest element with at least p % of the
			// samples at or below it, found by counting.
			var want uint32
			for _, x := range v {
				atOrBelow := 0
				for _, y := range v {
					if y <= x {
						atOrBelow++
					}
				}
				if float64(atOrBelow) >= p/100*float64(n) {
					want = x
					break
				}
			}
			if got := percentile(v, p); got != want {
				t.Errorf("n=%d p=%v: got %d, want %d", n, p, got, want)
			}
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("got %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("got %v %v %v, want 1 2 3", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{32, 1, 16, 2, 8, 4})
	if q1 != 1.75 || q2 != 6 || q3 != 20 {
		t.Errorf("got %v %v %v, want 1.75 6 20", q1, q2, q3)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median: got %v, want 2.5", m)
	}
}

func TestFillBlockMatchesFillPattern(t *testing.T) {
	got, want := make([]byte, blockSize), make([]byte, blockSize)
	for _, b := range []blockdev.BlockID{{File: 1, Block: 0}, {File: 77, Block: 4095}, {File: 1 << 20, Block: 1 << 24}} {
		fillBlock(b, got)
		lapcache.FillPattern(b, want)
		if !slices.Equal(got, want) {
			t.Errorf("block %v: fillBlock differs from lapcache.FillPattern", b)
		}
	}
}

// BENCHMARK.json and the program must name the same metrics, units,
// directions and bounds, and the same workloads.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds is %d, the program's default is %d", doc.RunSeconds, defaultSeconds)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("workloads are %v, the program runs %v", names, workloadNames)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	compare := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
			return
		}
		for i, g := range got {
			w := want[i]
			if !nameRE.MatchString(g.Name) {
				t.Errorf("%s: name %q is not made of letters, digits, _ . -", kind, g.Name)
			}
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the program %+v", kind, i, g, w)
			}
			switch {
			case bounded && (g.Bound == nil || math.Abs(*g.Bound-w.Bound) > 1e-12):
				t.Errorf("%s[%d] %s: bound differs from the program's %v", kind, i, g.Name, w.Bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s[%d] %s: a per-layer metric has no bound", kind, i, g.Name)
			}
		}
	}
	compare("end_to_end", doc.EndToEnd, endToEnd, true)
	compare("per_layer", doc.PerLayer, perLayer, false)

	// What a run emits is exactly those names.
	v := values{"ops_per_s": 1, "not_a_metric": 2}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		out := v.withUnits(defs)
		if len(out) != len(defs) {
			t.Errorf("a run emits %d metrics, want %d", len(out), len(defs))
		}
		for _, d := range defs {
			if m, ok := out[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("metric %s is not emitted with unit %s", d.Name, d.Unit)
			}
		}
	}
}

// A run's rounds are summed up by their medians, column by column,
// and a round measured on a host at half speed reads as at full speed:
// twice the rate, half the times.
func TestReduceRoundsAndSpeed(t *testing.T) {
	var rr []roundResult
	for i := 1; i <= 20; i++ {
		f := float64(i)
		rr = append(rr, roundResult{opsPerS: 1000 * f, readMeanUs: 100 / f, readP90Us: 200 / f, memPct: f})
	}
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
	got := reduce(rr)
	if got.opsPerS != 10500 || !near(got.readMeanUs, (100.0/10+100.0/11)/2) || !near(got.readP90Us, (200.0/10+200.0/11)/2) || got.memPct != 10.5 {
		t.Errorf("reduce: got %+v", got)
	}
	got = roundResult{opsPerS: 1000, readMeanUs: 100, readP90Us: 200, writeMeanUs: 50, memPct: 80, reads: 7}.atSpeed(0.5)
	want := roundResult{opsPerS: 2000, readMeanUs: 50, readP90Us: 100, writeMeanUs: 25, memPct: 80, reads: 7}
	if got != want {
		t.Errorf("atSpeed(0.5): got %+v, want %+v", got, want)
	}
}

// The yardsticks: the reference simulation is the same computation on
// every call, the reference load completes exchanges and stops clean,
// and no load at all reads as speed 1.
func TestYardsticks(t *testing.T) {
	if a, b := refSimUnit(), refSimUnit(); a != b || a == 0 {
		t.Errorf("refSimUnit: digests %x and %x", a, b)
	}
	l, err := startRefLoad()
	if err != nil {
		t.Fatal(err)
	}
	if s := l.speed(20 * time.Millisecond); s <= 0 {
		t.Errorf("reference load: speed %v", s)
	}
	if err := l.stop(); err != nil {
		t.Errorf("reference load: %v", err)
	}
	var none *refLoad
	if s := none.speed(time.Second); s != 1 || none.stop() != nil {
		t.Errorf("no reference load: speed %v", s)
	}
}

// A short end-to-end run of a small live workload: the set-ups, the
// timed loop, the payload verification, the checks and the tear-down
// leak check all execute.
func TestShortLiveRun(t *testing.T) {
	const files, blocks = 4, 64
	small := liveWorkload{name: "small", rounds: 4, cpuBound: true, setup: func(seed uint64) (*liveEnv, []*reader, error) {
		ids := sequentialIDs(files)
		eng, addr, stop, err := serveEngine(lapcache.Config{
			Alg: liveAlg, BlockSize: blockSize, CacheBlocks: files * blocks / 2,
			Store: lapcache.NewMemStore(blockSize, 0), FileBlocks: fileTable(ids, blocks),
		}, 1)
		if err != nil {
			return nil, nil, err
		}
		env := &liveEnv{engines: []*lapcache.Engine{eng}, fileID: ids, stop: stop}
		if env.conns, err = dial(addr, 1, 2); err != nil {
			return nil, nil, err
		}
		var readers []*reader
		for _, src := range newScanSources(seed, 2, files, blocks) {
			readers = append(readers, newReader(env.conns[0], src, 0, ids))
		}
		runRound(readers, 0, 100, &latBufs{})
		return env, readers, nil
	}}
	out := runLive(small, 1, 0.3, nil)
	if len(out.problems) != 0 {
		t.Fatalf("checks failed: %v", out.problems)
	}
	if out.attempted == 0 || out.failed != 0 {
		t.Fatalf("attempted %d, failed %d", out.attempted, out.failed)
	}
	for _, d := range endToEnd {
		if out.metrics[d.Name] <= 0 {
			t.Errorf("%s is %v, want a positive number", d.Name, out.metrics[d.Name])
		}
	}
}
