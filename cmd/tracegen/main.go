// Command tracegen materializes the paper's synthetic workloads,
// CHARISMA and Sprite, as text trace files, or with -analyze prints
// their one summary (workload.Analyze: processes, files declared and
// used, request mix, request and file sizes, footprint, sequentiality,
// sharing), so the request streams driving the experiments can be
// inspected and replayed.
//
// Usage:
//
//	tracegen -workload charisma|sprite [-scale full|small|tiny] [-seed N] [-o FILE] [-analyze]
//
// The trace is experiment.Scale.Trace's — the one every simulated cell
// of that workload runs — so `lapsim -trace FILE` replays exactly what
// a sweep at that scale sees. -seed N draws a different trace from the
// same generator (Scale.Reseeded).
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiment"
	"repro/internal/workload"
)

func main() {
	wlName := flag.String("workload", "charisma", "workload: charisma or sprite")
	scaleName := flag.String("scale", "small", "experiment scale: full, small, tiny")
	seed := flag.Uint64("seed", 0, "override the generator seed (0 keeps the scale's)")
	out := flag.String("o", "", "write the trace to this file (default stdout)")
	analyze := flag.Bool("analyze", false, "print the trace's summary (processes, files, request mix and sizes, footprint, sequentiality, sharing) instead of the trace")
	flag.Parse()

	scale, err := experiment.ScaleByName(*scaleName)
	if err != nil {
		fail("%v", err)
	}
	wl, err := experiment.ParseWorkload(*wlName)
	if err != nil {
		fail("%v", err)
	}
	if *seed != 0 {
		scale = scale.Reseeded(*seed)
	}
	tr, _, err := scale.Trace(wl)
	if err != nil {
		fail("%v", err)
	}

	if *analyze {
		fmt.Print(workload.Analyze(tr, 8192).Render())
		return
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fail("%v", err)
		}
		defer f.Close()
		w = f
	}
	if err := workload.Encode(w, tr); err != nil {
		fail("%v", err)
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tracegen: "+format+"\n", args...)
	os.Exit(2)
}
