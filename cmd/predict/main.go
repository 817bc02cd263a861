// Command predict scores the prefetch predictors offline against the
// request streams of a workload, with no cache or disks in the loop:
// pure prediction accuracy, the property §2.2 of the paper argues
// IS_PPM has and One-Block-Ahead lacks on non-sequential patterns.
//
// Usage:
//
//	predict [-workload charisma|sprite|cdn|oltp] [-scale full|small|tiny] [-mode file|nodefile] [-trace FILE]
//
// With -trace, a text trace written by tracegen is scored instead of a
// freshly generated one. Workload and scale names are tracegen's and
// lapsim's (experiment.ParseWorkload, experiment.ScaleByName).
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiment"
	"repro/internal/predeval"
	"repro/internal/workload"
)

func main() {
	wlName := flag.String("workload", "charisma", "workload: charisma, sprite, cdn or oltp")
	scaleName := flag.String("scale", "small", "experiment scale: full, small, tiny")
	modeName := flag.String("mode", "file", "stream mode: file (PAFS server view) or nodefile (xFS node view)")
	traceFile := flag.String("trace", "", "score this tracegen file instead of generating")
	flag.Parse()

	var mode predeval.StreamMode
	switch *modeName {
	case "file":
		mode = predeval.PerFile
	case "nodefile":
		mode = predeval.PerNodeFile
	default:
		fail("unknown mode %q", *modeName)
	}

	scale, err := experiment.ScaleByName(*scaleName)
	if err != nil {
		fail("%v", err)
	}
	wl, err := experiment.ParseWorkload(*wlName)
	if err != nil {
		fail("%v", err)
	}
	tr, mach, err := scale.Trace(wl)
	if err != nil {
		fail("%v", err)
	}
	if *traceFile != "" {
		f, err := os.Open(*traceFile)
		if err != nil {
			fail("%v", err)
		}
		tr, err = workload.Decode(f)
		f.Close()
		if err != nil {
			fail("%v", err)
		}
	}

	fmt.Printf("prediction accuracy, %s streams of trace %q:\n\n", mode, tr.Name)
	for _, r := range predeval.EvaluateStandard(tr, mode, mach.BlockSize) {
		fmt.Println(r)
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "predict: "+format+"\n", args...)
	os.Exit(2)
}
