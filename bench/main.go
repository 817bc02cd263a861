// Command bench is the repository's end-to-end benchmark (ISSUE 13).
//
//	bash bench/run.sh -workload hit_fanin -seed 1            one run, end-to-end metrics
//	bash bench/run.sh -workload hit_fanin -seed 1 -trace 1   traced run, per-layer metrics
//	bash bench/run.sh -workload sim_sweep -check             short run, checks only
//	bash bench/run.sh -workload coop_mixed -calibrate 10     ten runs, spread per metric
//	bash bench/run.sh -all -seed 1                           the four workloads, one document
//
// The last line of standard output of a run is one JSON object:
// correct, attempted, failed, metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// workloadNames lists the workloads in BENCHMARK.json's order.
var workloadNames = []string{"sim_sweep", "hit_fanin", "seq_prefetch", "coop_mixed"}

// defaultSeconds is BENCHMARK.json's run_seconds; checkSeconds is what
// -check measures for when -seconds is not given.
const (
	defaultSeconds = 20
	checkSeconds   = 3
)

func main() {
	var (
		workload  = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
		seedFlag  = flag.String("seed", "1", "input seed, any 64-bit integer: the same seed gives the same inputs")
		seconds   = flag.Float64("seconds", defaultSeconds, "measured time, split into rounds (sim_sweep: into whole sweeps, three at least)")
		trace     = flag.Int("trace", 0, "1: record spans and report the per-layer metrics instead of the end-to-end ones")
		traceOut  = flag.String("trace-out", "", "span file of a traced run (default .bench_build/trace-<workload>-<seed>.jsonl)")
		check     = flag.Bool("check", false, "short run whose point is the checks every run ends with")
		calibrate = flag.Int("calibrate", 0, "run the workload this many times, each with another seed, and report each metric's spread")
		all       = flag.Bool("all", false, "run every workload once with -seed and print one JSON document")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf(2, "unexpected argument %q", flag.Arg(0))
	}
	seed, err := parseSeed(*seedFlag)
	if err != nil {
		fatalf(2, "-seed: %v", err)
	}
	if *check && !flagGiven("seconds") {
		*seconds = checkSeconds
	}
	if *seconds <= 0 {
		fatalf(2, "-seconds must be positive")
	}

	switch {
	case *all:
		os.Exit(runAll(seed, *seconds))
	case *calibrate > 0:
		mustBeWorkload(*workload)
		os.Exit(runCalibrate(*workload, *calibrate, seed, *seconds))
	}
	mustBeWorkload(*workload)

	// The load generator, the servers and the simulator's workers share
	// one process and every core of the machine.
	runtime.GOMAXPROCS(runtime.NumCPU())

	traced := *trace != 0
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	out := runWorkload(*workload, seed, *seconds, tr)

	defs := endToEnd
	if traced {
		defs = perLayer
		path := *traceOut
		if path == "" {
			path = filepath.Join(".bench_build", fmt.Sprintf("trace-%s-%d.jsonl", *workload, seed))
		}
		if err := tr.write(path); err != nil {
			out.problem("writing spans: %v", err)
		} else {
			logf("%d spans written to %s", len(tr.spans), path)
		}
	}
	res := result{
		Correct:   len(out.problems) == 0,
		Attempted: max(out.attempted, 1),
		Failed:    out.failed,
		Metrics:   out.metrics.withUnits(defs),
	}
	for _, d := range defs {
		fmt.Printf("%-36s %16.4f %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
	for _, p := range out.problems {
		fmt.Printf("CHECK FAILED: %s\n", p)
	}
	if res.Correct {
		fmt.Println("checks: all passed")
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf(1, "encoding the result: %v", err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// runWorkload dispatches one run: untraced when tr is nil.
func runWorkload(name string, seed uint64, seconds float64, tr *tracer) runOutcome {
	if name == "sim_sweep" {
		out := runSim(seed, seconds, tr)
		if tr != nil {
			// The simulator has no live stream of its own: the core timings
			// replay its CHARISMA requests, the tiers hit_fanin's stream.
			reqs := []request(nil)
			if in, err := buildSimInputs(seed, nil); err != nil {
				out.problem("layer timings: %v", err)
			} else {
				reqs = in.requests(ladderOps)
			}
			layerProbes(&out, reqs, false, liveWorkloads[0].ladder(seed), tr)
		}
		return out
	}
	for _, w := range liveWorkloads {
		if w.name != name {
			continue
		}
		out := runLive(w, seed, seconds, tr)
		if tr != nil {
			l := w.ladder(seed)
			layerProbes(&out, requestsOf(l.ops), w.allCached, l, tr)
			if err := simProbe(seed, tr, out.metrics); err != nil {
				out.problem("simulator probe: %v", err)
			}
		}
		return out
	}
	panic("unreachable: workload names are checked in main")
}

// layerProbes is the second half of a traced run: timings of single
// calls into each layer, and the replay of one stream tier by tier.
// Every traced run makes all of them, so that a layer's timing can be
// followed across the four workloads' runs.
func layerProbes(out *runOutcome, reqs []request, allCached bool, l ladder, tr *tracer) {
	m := out.metrics
	if len(reqs) > 0 {
		coreMicro(reqs, allCached, m)
	}
	recordMicro(tr, m)
	if err := layerMicro(m); err != nil {
		out.problem("layer timings: %v", err)
	}
	loopback, err := replayTiers(l.withWrites(), tr, m)
	if err != nil {
		out.problem("tier replay: %v", err)
		return
	}
	// What the hit path's rungs do not account for.
	m["lapclient.unattributed_ns"] = m["lapclient.rtt_hit_ns"] -
		(m["lapcache.engine_hit_ns"] + m["wire.encode_ns"] + m["wire.parse_ns"] + m["wire.loopback_floor_ns"])
	// Client-side latencies the workload's own rounds did not produce
	// (it has no such operation, or no client at all) come from the
	// replay's loopback tier: one connection, depth 1.
	if _, ok := m["lapclient.read_p50_us"]; !ok {
		m["lapclient.read_p50_us"] = float64(percentile(loopback.reads, 50)) / 1e3
		m["lapclient.read_p99_us"] = float64(percentile(loopback.reads, 99)) / 1e3
	}
	if _, ok := m["lapclient.write_mean_us"]; !ok {
		m["lapclient.write_mean_us"] = mean(loopback.writes) / 1e3
		m["lapclient.write_p90_us"] = float64(percentile(loopback.writes, 90)) / 1e3
	}
}

// parseSeed accepts any integer that fits 64 bits, signed or not.
func parseSeed(s string) (uint64, error) {
	if v, err := strconv.ParseUint(s, 10, 64); err == nil {
		return v, nil
	}
	v, err := strconv.ParseInt(s, 10, 64)
	return uint64(v), err
}

func mustBeWorkload(name string) {
	for _, n := range workloadNames {
		if n == name {
			return
		}
	}
	fatalf(2, "unknown -workload %q; want one of %s", name, strings.Join(workloadNames, ", "))
}

func flagGiven(name string) bool {
	given := false
	flag.Visit(func(f *flag.Flag) { given = given || f.Name == name })
	return given
}

func fatalf(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(code)
}

// child runs this program once more with the given flags, as the
// driver would, and decodes the last line it prints. Runs are separate
// processes so that one run's heap and caches cannot help the next.
func child(args ...string) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	var res result
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
		if err != nil {
			return result{}, err
		}
		return result{}, fmt.Errorf("last line of output is not a result: %w", jerr)
	}
	if err != nil {
		return res, fmt.Errorf("run failed its checks (%w):\n%s", err, stdout)
	}
	return res, nil
}

func runArgs(workload string, seed uint64, seconds float64) []string {
	return []string{"-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", "0"}
}

// runAll runs the four workloads back to back with one seed and prints
// one document: each workload's result object by name, and the total
// wall time, which must stay far below the driver's cap of 180 s a run.
func runAll(seed uint64, seconds float64) int {
	start := time.Now()
	doc := struct {
		Seed      uint64            `json:"seed"`
		Workloads map[string]result `json:"workloads"`
		WallS     float64           `json:"wall_s"`
	}{Seed: seed, Workloads: map[string]result{}}
	code := 0
	for _, w := range workloadNames {
		res, err := child(runArgs(w, seed, seconds)...)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w, err)
			code = 1
		}
		doc.Workloads[w] = res
	}
	doc.WallS = time.Since(start).Seconds()
	fmt.Fprintf(os.Stderr, "total wall time %.1f s\n", doc.WallS)
	line, err := json.Marshal(doc)
	if err != nil {
		fatalf(1, "encoding the document: %v", err)
	}
	fmt.Println(string(line))
	return code
}
