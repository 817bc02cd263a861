// charisma_pm reproduces the paper's Figure 4 sweep programmatically:
// every prefetching algorithm over every cache size, for the CHARISMA
// parallel-machine workload on PAFS, and points out the three
// performance groups the paper describes.
//
//	go run ./examples/charisma_pm [-scale tiny|small|full]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/experiment"
)

func main() {
	scaleName := flag.String("scale", "tiny", "experiment scale: tiny, small, full")
	flag.Parse()

	scale, err := experiment.ScaleByName(*scaleName)
	if err != nil {
		log.Fatal(err)
	}

	suite := experiment.NewSuite(scale, 0)
	suite.Progress = os.Stderr
	fig, err := suite.Figure("fig4")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(fig.Render())

	// The paper's reading of this figure (§5.2): OBA alone barely
	// helps; the IS_PPM predictors form a middle group; the linear
	// aggressive algorithms are far ahead. Verify the grouping at the
	// largest cache.
	large := scale.CacheSizesMB[len(scale.CacheSizesMB)-1]
	np, _ := fig.Value(core.SpecNP.Name(), large)
	oba, _ := fig.Value(core.SpecOBA.Name(), large)
	agr, _ := fig.Value(core.SpecLnAgrISPPM1.Name(), large)
	fmt.Printf("\nat %d MB per node: NP %.2f ms, OBA %.2f ms, Ln_Agr_IS_PPM:1 %.2f ms\n",
		large, np, oba, agr)
	fmt.Printf("linear aggressive prefetching speeds reads up %.1fx over no prefetching\n", np/agr)
}
