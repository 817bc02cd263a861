// Command lapbench regenerates the paper's evaluation: every figure
// (4–11), both tables, and the paper-vs-measured verdict table
// (-exp report; -exp claims prints its in-text-claim rows, and -exp all
// ends with them).
//
// Usage:
//
//	lapbench [-exp all|table1|fig4..fig11|table2|claims|report|ablations|chaos] [-scale full|small|tiny] [-workers N] [-v]
//
// Results print as aligned text tables, one per artifact. The full
// scale regenerates everything EXPERIMENTS.md records and takes a few
// minutes; small and tiny are for quick looks. Performance numbers
// come from `bash bench/run.sh`, not from here.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiment"
	"repro/internal/report"
)

func main() {
	exp := flag.String("exp", "all", "artifact to run: all, table1, fig4..fig11, table2, claims, report, ablations, chaos")
	scaleName := flag.String("scale", "full", "experiment scale: full, small, tiny")
	workers := flag.Int("workers", 0, "parallel simulation workers (0 = GOMAXPROCS)")
	verbose := flag.Bool("v", false, "print per-cell diagnostics for the artifact's matrix")
	format := flag.String("format", "text", "output format for a single figure: text, csv, json")
	seed := flag.Uint64("seed", 1, "fault-plan seed for -exp chaos")
	adaptiveVictim := flag.Bool("adaptive-victim", false, "for -exp chaos: run the adaptive prefetch window on the seed-chosen victim node (strict elsewhere)")
	flag.Parse()

	scale, err := experiment.ScaleByName(*scaleName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lapbench: %v\n", err)
		os.Exit(2)
	}

	suite := experiment.NewSuite(scale, *workers)
	suite.Progress = os.Stderr

	switch *exp {
	case "all":
		out, err := suite.RenderAll()
		exitOn(err)
		rep, err := report.Build(suite)
		exitOn(err)
		fmt.Print(out, rep.Claims())
	case "table1":
		fmt.Print(experiment.Table1())
	case "claims":
		rep, err := report.Build(suite)
		exitOn(err)
		fmt.Print(rep.Claims())
	case "report":
		rep, err := report.Build(suite)
		exitOn(err)
		fmt.Print(rep.Render())
	case "chaos":
		// Chaos runs at the tiny scale regardless of -scale: the point
		// is fault density, not workload volume.
		exitOn(runChaos(experiment.TinyScale(), *seed, *adaptiveVictim))
	case "ablations":
		out, err := experiment.RunAblations(scale)
		exitOn(err)
		fmt.Print(out)
	default:
		fig, err := suite.Figure(*exp)
		exitOn(err)
		switch *format {
		case "text":
			fmt.Print(fig.Render())
		case "csv":
			exitOn(fig.WriteCSV(os.Stdout))
		case "json":
			exitOn(fig.WriteJSON(os.Stdout))
		default:
			fmt.Fprintf(os.Stderr, "lapbench: unknown format %q\n", *format)
			os.Exit(2)
		}
		if *verbose {
			fs, wl, err := experiment.MatrixKeyForFigure(*exp)
			exitOn(err)
			m, err := suite.Matrix(fs, wl)
			exitOn(err)
			fmt.Print(experiment.SummaryByAlg(m))
		}
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "lapbench: %v\n", err)
		os.Exit(1)
	}
}
