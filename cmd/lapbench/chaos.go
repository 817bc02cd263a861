package main

import (
	"fmt"

	"repro/internal/chaos"
	"repro/internal/experiment"
)

// runChaos executes one seeded chaos run: a live 3-node cluster
// replaying the scale's CHARISMA trace under the default fault plan,
// with the full invariant audit, on the fixed ring (what `make soak`
// exercises). The same seed reproduces the same
// faulted-site set bit for bit (the digest printed in the report), so
// a failing seed from `make soak` replays here directly. adaptiveVictim
// runs the adaptive prefetch window on the seed-chosen victim node —
// the audit then bounds its files' high-water marks by the adaptive cap
// while every linear node stays bounded by exactly 1 (make soak
// alternates this).
func runChaos(scale experiment.Scale, seed uint64, adaptiveVictim bool) error {
	res, err := chaos.Run(chaos.Config{
		Seed:           seed,
		Charisma:       scale.Charisma,
		AdaptiveVictim: adaptiveVictim,
	})
	if err != nil {
		return err
	}
	fmt.Print(res.String())
	fmt.Print(res.Report.String())
	return res.Inv.Check()
}
