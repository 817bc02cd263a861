package main

import (
	"fmt"
	"os"
)

// runCalibrate runs one workload n times, each time with another seed
// (seed, seed+1, ...), and prints for every end-to-end metric the
// median, the quartiles, the interquartile range over the median (the
// spread the benchmark is accepted on) and (max-min)/median. It fails
// if a spread exceeds the metric's bound. setup_s is reported but, as
// in the acceptance rule, not held to its bound here: its bound is on
// the median of a set of runs, not on their spread.
func runCalibrate(workload string, n int, seed uint64, seconds float64) int {
	if n < 2 {
		fatalf(2, "-calibrate needs at least 2 runs")
	}
	runs := make(map[string][]float64)
	code := 0
	for i := 0; i < n; i++ {
		res, err := child(runArgs(workload, seed+uint64(i), seconds)...)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: run %d: %v\n", i+1, err)
			return 1
		}
		for name, v := range res.Metrics {
			runs[name] = append(runs[name], v.Value)
		}
	}
	fmt.Printf("### %s: %d runs of %g s, seeds %d..%d\n\n", workload, n, seconds, seed, seed+uint64(n)-1)
	fmt.Println("| metric | unit | median | q1 | q3 | IQR/median | (max-min)/median | bound | within |")
	fmt.Println("|---|---|---|---|---|---|---|---|---|")
	for _, d := range endToEnd {
		v := runs[d.Name]
		q1, q2, q3 := quartiles(v)
		iqr := (q3 - q1) / q2
		verdict := "yes"
		switch {
		case d.Name == "setup_s":
			verdict = "not held"
		case iqr > d.Bound:
			verdict = "NO"
			code = 1
		}
		fmt.Printf("| %s | %s | %.6g | %.6g | %.6g | %.3f%% | %.3f%% | %.1f%% | %s |\n",
			d.Name, d.Unit, q2, q1, q3, iqr*100, spreadPct(v), d.Bound*100, verdict)
	}
	fmt.Print("\nEach run's values:\n\n")
	fmt.Print("| seed |")
	for _, d := range endToEnd {
		fmt.Printf(" %s |", d.Name)
	}
	fmt.Print("\n|---|")
	for range endToEnd {
		fmt.Print("---|")
	}
	for i := 0; i < n; i++ {
		fmt.Printf("\n| %d |", seed+uint64(i))
		for _, d := range endToEnd {
			fmt.Printf(" %.6g |", runs[d.Name][i])
		}
	}
	fmt.Print("\n\n")
	return code
}
