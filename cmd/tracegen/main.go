// Command tracegen materializes the synthetic workloads — the paper's
// CHARISMA and Sprite plus the post-paper CDN and OLTP scenarios — as
// text trace files, or prints summary statistics about them, so the
// request streams driving the experiments can be inspected and
// replayed.
//
// Usage:
//
//	tracegen -workload charisma|sprite|cdn|oltp [-scale full|small|tiny] [-seed N] [-o FILE] [-stats|-analyze]
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
	"sort"

	"repro/internal/blockdev"
	"repro/internal/experiment"
	"repro/internal/workload"
)

func main() {
	wlName := flag.String("workload", "charisma", "workload: charisma, sprite, cdn or oltp")
	scaleName := flag.String("scale", "small", "experiment scale: full, small, tiny")
	seed := flag.Uint64("seed", 0, "override the generator seed (0 keeps the scale's)")
	out := flag.String("o", "", "write the trace to this file (default stdout)")
	statsOnly := flag.Bool("stats", false, "print summary statistics instead of the trace")
	analyze := flag.Bool("analyze", false, "print the fidelity analysis (request mix, sequentiality, sharing) instead of the trace")
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
	if *statsOnly {
		printStats(tr)
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

func printStats(tr *workload.Trace) {
	reads, writes, closes := 0, 0, 0
	var bytes int64
	filesUsed := make(map[blockdev.FileID]bool)
	for _, p := range tr.Procs {
		for _, s := range p.Steps {
			switch s.Kind {
			case workload.OpRead:
				reads++
				bytes += s.Size
			case workload.OpWrite:
				writes++
				bytes += s.Size
			case workload.OpClose:
				closes++
			}
			filesUsed[s.File] = true
		}
	}
	sizes := make([]int, 0, len(tr.FileBlocks))
	for _, b := range tr.FileBlocks {
		sizes = append(sizes, int(b))
	}
	sort.Ints(sizes)
	fmt.Printf("trace            %s\n", tr.Name)
	fmt.Printf("processes        %d\n", len(tr.Procs))
	fmt.Printf("files            %d declared, %d used\n", len(tr.FileBlocks), len(filesUsed))
	fmt.Printf("file blocks      median %d, max %d, total %d\n",
		sizes[len(sizes)/2], sizes[len(sizes)-1], tr.DistinctBlocks())
	fmt.Printf("steps            %d (reads %d, writes %d, closes %d)\n",
		tr.TotalSteps(), reads, writes, closes)
	fmt.Printf("request bytes    %d (%.1f MB)\n", bytes, float64(bytes)/1e6)
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tracegen: "+format+"\n", args...)
	os.Exit(2)
}
