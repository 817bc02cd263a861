// Command benchfmt turns `go test -bench` output into the repo's
// BENCH_*.json record format (see BENCH_lapcache.json). It reads the
// benchmark run from stdin, echoes it through to stderr so the run
// stays visible, and writes the JSON record to -o.
//
// Usage:
//
//	go test -run '^$' -bench BenchmarkWireRoundTrip -benchmem . | \
//	    go run ./cmd/benchfmt -benchmark BenchmarkWireRoundTrip -o BENCH_wire.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

type result struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	MBPerS      float64 `json:"mb_per_s,omitempty"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// Load-harness units (lapbench -exp load -load-bench): achieved
	// throughput and the latency tail quantiles per offered rate.
	ReqPerS float64 `json:"req_per_s,omitempty"`
	P50Ns   int64   `json:"p50_ns,omitempty"`
	P99Ns   int64   `json:"p99_ns,omitempty"`
	P999Ns  int64   `json:"p999_ns,omitempty"`
	// Membership-tier unit (BenchmarkMembership): rebalancing handoff
	// throughput under its byte budget.
	BlocksMovedPerS float64 `json:"blocks_moved_per_s,omitempty"`
	// Degree-policy units (lapbench -exp adaptive -bench): the
	// controller's prefetch window at run end, its feedback accuracy,
	// and the demand hit ratio, both in percent.
	Degree      int64   `json:"degree,omitempty"`
	AccuracyPct float64 `json:"accuracy_pct,omitempty"`
	HitPct      float64 `json:"hit_pct,omitempty"`
	// Predictor-matrix units (lapbench -exp predictors -bench):
	// prefetch timeliness counts and the byte cost of each timely
	// prefetch hit.
	PrefetchTimely int64   `json:"prefetch_timely,omitempty"`
	PrefetchLate   int64   `json:"prefetch_late,omitempty"`
	PrefetchWasted int64   `json:"prefetch_wasted,omitempty"`
	PfBytesPerHit  float64 `json:"pf_bytes_per_hit,omitempty"`
}

type record struct {
	Benchmark   string   `json:"benchmark"`
	Description string   `json:"description,omitempty"`
	Date        string   `json:"date"`
	Command     string   `json:"command,omitempty"`
	Go          string   `json:"go"`
	CPU         string   `json:"cpu,omitempty"`
	Results     []result `json:"results"`
	Notes       string   `json:"notes,omitempty"`
}

func main() {
	var (
		benchmark = flag.String("benchmark", "", "benchmark name for the record header")
		filter    = flag.String("filter", "Benchmark", "keep only result names with this prefix")
		desc      = flag.String("description", "", "one-line description")
		notes     = flag.String("notes", "", "free-form notes")
		command   = flag.String("command", "", "the command that produced the input")
		out       = flag.String("o", "", "output file (stdout when empty)")
		asserts   = flag.String("assert-allocs", "", "fail unless each named result stays at or under its allocs/op budget, e.g. 'BenchmarkClusterRead/localHit=0,BenchmarkClusterRead/remoteHit=0'")
	)
	flag.Parse()

	budgets, err := parseAllocAsserts(*asserts)
	if err != nil {
		log.Fatalf("benchfmt: %v", err)
	}

	rec := record{
		Benchmark:   *benchmark,
		Description: *desc,
		Notes:       *notes,
		Command:     *command,
		Date:        time.Now().Format("2006-01-02"),
		Go:          runtime.Version(),
	}

	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(os.Stderr, line)
		if cpu, ok := strings.CutPrefix(line, "cpu: "); ok {
			rec.CPU = cpu
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		r, ok := parseLine(line)
		if !ok {
			continue
		}
		if !strings.HasPrefix(r.Name, *filter) {
			continue
		}
		rec.Results = append(rec.Results, r)
	}
	if err := sc.Err(); err != nil {
		log.Fatalf("benchfmt: reading input: %v", err)
	}
	if len(rec.Results) == 0 {
		log.Fatal("benchfmt: no benchmark result lines in input")
	}
	if err := checkAllocAsserts(budgets, rec.Results); err != nil {
		log.Fatalf("benchfmt: %v", err)
	}

	buf, err := json.MarshalIndent(&rec, "", "  ")
	if err != nil {
		log.Fatalf("benchfmt: %v", err)
	}
	buf = append(buf, '\n')
	if *out == "" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		log.Fatalf("benchfmt: %v", err)
	}
	log.Printf("benchfmt: wrote %d results to %s", len(rec.Results), *out)
}

// parseAllocAsserts decodes an -assert-allocs spec: comma-separated
// name=max pairs, where name is a benchmark result name without the
// -N GOMAXPROCS suffix.
func parseAllocAsserts(spec string) (map[string]int64, error) {
	if spec == "" {
		return nil, nil
	}
	budgets := make(map[string]int64)
	for _, pair := range strings.Split(spec, ",") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		name, maxs, ok := strings.Cut(pair, "=")
		if !ok {
			return nil, fmt.Errorf("-assert-allocs entry %q is not name=max", pair)
		}
		max, err := strconv.ParseInt(maxs, 10, 64)
		if err != nil || max < 0 {
			return nil, fmt.Errorf("-assert-allocs entry %q has a bad budget", pair)
		}
		budgets[name] = max
	}
	return budgets, nil
}

// checkAllocAsserts is the allocs/op regression gate: every asserted
// name must appear in the parsed results (a silently-renamed benchmark
// must not quietly disarm the gate) and stay within budget.
func checkAllocAsserts(budgets map[string]int64, results []result) error {
	if len(budgets) == 0 {
		return nil
	}
	seen := make(map[string]bool, len(budgets))
	for _, r := range results {
		name := trimProcSuffix(r.Name)
		max, ok := budgets[name]
		if !ok {
			continue
		}
		seen[name] = true
		if r.AllocsPerOp > max {
			return fmt.Errorf("allocs/op regression: %s reports %d allocs/op, budget %d",
				r.Name, r.AllocsPerOp, max)
		}
	}
	for name := range budgets {
		if !seen[name] {
			return fmt.Errorf("-assert-allocs names %s, but no such result was parsed", name)
		}
	}
	return nil
}

// trimProcSuffix strips the trailing -N GOMAXPROCS suffix go test
// appends to benchmark names (BenchmarkX/sub-8 → BenchmarkX/sub).
func trimProcSuffix(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// parseLine decodes one `-bench` result line: a name, an iteration
// count, then value/unit pairs (ns/op, MB/s, B/op, allocs/op). The
// -N GOMAXPROCS suffix goes with the name, matching go tooling.
func parseLine(line string) (result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return result{}, false
	}
	var r result
	r.Name = fields[0]
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return result{}, false
	}
	r.Iterations = iters
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return result{}, false
		}
		switch fields[i+1] {
		case "ns/op":
			r.NsPerOp = v
		case "MB/s":
			r.MBPerS = v
		case "B/op":
			r.BytesPerOp = int64(v)
		case "allocs/op":
			r.AllocsPerOp = int64(v)
		case "req/s":
			r.ReqPerS = v
		case "p50-ns":
			r.P50Ns = int64(v)
		case "p99-ns":
			r.P99Ns = int64(v)
		case "p999-ns":
			r.P999Ns = int64(v)
		case "blocks-moved/s":
			r.BlocksMovedPerS = v
		case "degree":
			r.Degree = int64(v)
		case "accuracy-%":
			r.AccuracyPct = v
		case "hit-%":
			r.HitPct = v
		case "timely":
			r.PrefetchTimely = int64(v)
		case "late":
			r.PrefetchLate = int64(v)
		case "wasted":
			r.PrefetchWasted = int64(v)
		case "pf-B/hit":
			r.PfBytesPerHit = v
		}
	}
	return r, r.NsPerOp > 0
}
