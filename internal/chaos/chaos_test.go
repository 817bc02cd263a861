package chaos

import (
	"testing"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/faultinject"
	"repro/internal/workload"
)

// runTiny executes one tiny-scale chaos run and fails the test on
// harness errors (invariant verdicts are the caller's business).
func runTiny(t *testing.T, seed uint64) Result {
	t.Helper()
	res, err := Run(Config{Seed: seed, Charisma: experiment.TinyScale().Charisma})
	if err != nil {
		t.Fatalf("chaos run (seed %d): %v", seed, err)
	}
	return res
}

// TestChaosAcceptance is the headline run: a 3-node cluster replaying
// a CHARISMA trace under the default fault plan must hold every
// invariant with a substantial injected-fault count — the ISSUE's
// >=500 floor, with margin.
func TestChaosAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a 3-node cluster")
	}
	t.Parallel()
	res := runTiny(t, 1)
	if err := res.Inv.Check(); err != nil {
		t.Fatalf("invariants violated:\n%v\nfull result:\n%s", err, res.String())
	}
	if res.Injected < 500 {
		t.Errorf("only %d faults injected, want >= 500 for a meaningful run", res.Injected)
	}
	if res.Inv.RefusedForwards == 0 {
		t.Error("no refused forwards: peer faults never made an owner unreachable")
	}
	if res.Inv.InjectedErrors == 0 {
		t.Error("no injected error ever surfaced to a client")
	}
	if res.Requests == 0 || res.Reads == 0 || res.Writes == 0 {
		t.Errorf("replay moved no traffic: %+v", res)
	}
}

// TestChaosSeedReproducibility: a booted run's selection digest is
// the one TestPlanDigests computes without a fleet — so the pin there
// shows one seed always gives the same digest, and its distinct pins
// show different seeds differ — and every observed fault falls inside
// the enumerated selected set.
func TestChaosSeedReproducibility(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a 3-node cluster")
	}
	t.Parallel()
	const want uint64 = 0x57bb8c92d461b454 // TestPlanDigests' seed 5
	r := runTiny(t, 5)
	if r.PlanDigest != want {
		t.Errorf("seed 5: plan digest %016x, want %016x", r.PlanDigest, want)
	}
	if len(r.Inv.UnselectedObserved) != 0 {
		t.Errorf("observed faults outside the selected set: %v", r.Inv.UnselectedObserved)
	}
	if err := r.Inv.Check(); err != nil {
		t.Errorf("seed %d: %v", r.Seed, err)
	}
}

// TestPlanDigests pins the plan digest of seeds 1–5 over the tiny
// CHARISMA trace, computed without booting a fleet: the digest is a
// pure function of (seed, plan, trace, topology), so a change to the
// plan, the site enumeration, the selection hash or the trace moves
// one of these values, and a failing seed's replay token silently
// changes meaning.
func TestPlanDigests(t *testing.T) {
	want := map[uint64]uint64{
		1: 0xd051c0f29f508065,
		2: 0xcf8d957e4d54dcac,
		3: 0xd5c2b520288c2f84,
		4: 0x7e594dcbc20d6b03,
		5: 0x57bb8c92d461b454,
	}
	for seed := uint64(1); seed <= 5; seed++ {
		inj, err := faultinject.New(faultPlan(seed))
		if err != nil {
			t.Fatal(err)
		}
		params := experiment.TinyScale().Charisma
		params.Seed = seed
		tr, err := workload.GenerateCharisma(params)
		if err != nil {
			t.Fatal(err)
		}
		if _, got := selectedSites(inj, fleetSize, engineFileBlocks(tr, params.BlockSize)); got != want[seed] {
			t.Errorf("seed %d: plan digest %016x, want %016x", seed, got, want[seed])
		}
	}
}

// TestInvariantsCheck: the verdict function flags each violation class
// and stays quiet on a clean result.
func TestInvariantsCheck(t *testing.T) {
	clean := Invariants{DegreeCap: 1, MaxOwnerHW: 1, InjectedErrors: 10}
	if err := clean.Check(); err != nil {
		t.Errorf("clean invariants flagged: %v", err)
	}
	bad := Invariants{
		DegreeCap:          1,
		MaxOwnerHW:         3,
		NonOwnerDriven:     []string{"n2 file 9"},
		LinearViolations:   2,
		PeerRefused:        1,
		BufLive:            4,
		DataMismatches:     1,
		UnexpectedErrors:   []string{"read f3: boom"},
		UnselectedObserved: []string{"0|store.read|store f1:2"},
		Outcomes:           Outcomes{Steps: 3, OK: 1, Refused: 1},
		Wedged:             true,
	}
	err := bad.Check()
	if err == nil {
		t.Fatal("violated invariants passed Check")
	}
	for _, want := range []string{"high-water", "non-owner", "linear", "does not own", "leaked", "mismatch", "unexpected",
		"selected set", "2 step outcomes recorded for 3", "wedged"} {
		if !contains(err.Error(), want) {
			t.Errorf("Check verdict misses %q: %v", want, err)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestChaosChurnAdaptiveVictim is the generalized-bound run: the
// seed-chosen victim node runs the adaptive prefetch window while
// every other node stays pinned to strict linear, on the fixed ring
// under the default fault plan. (The mid-replay kill and rejoin that
// gave the test its name went with churn mode; see CHANGES.md.) The audit
// must bound every node's high-water marks by its *own* policy cap —
// the victim within the adaptive hard K, the linear nodes within
// exactly 1 — with zero violations anywhere: LinearViolations stays
// exact because the linear engines' window cap is still 1.
func TestChaosChurnAdaptiveVictim(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a 3-node cluster")
	}
	t.Parallel()
	res, err := Run(Config{
		Seed:           3,
		Charisma:       experiment.TinyScale().Charisma,
		AdaptiveVictim: true,
	})
	if err != nil {
		t.Fatalf("chaos adaptive-victim run: %v", err)
	}
	if err := res.Inv.Check(); err != nil {
		t.Fatalf("invariants violated:\n%v\nfull result:\n%s", err, res.String())
	}
	if res.Inv.DegreeCap != core.DefaultAdaptiveCap {
		t.Errorf("fleet degree cap = %d, want the adaptive victim's %d",
			res.Inv.DegreeCap, core.DefaultAdaptiveCap)
	}
	if res.Inv.MaxOwnerHW > core.DefaultAdaptiveCap {
		t.Errorf("owner high-water %d exceeds the adaptive cap %d",
			res.Inv.MaxOwnerHW, core.DefaultAdaptiveCap)
	}
	if len(res.Inv.OverCap) != 0 {
		t.Errorf("nodes exceeded their own policy cap: %v", res.Inv.OverCap)
	}
	if res.Inv.LinearViolations != 0 {
		t.Errorf("%d linearity violations; the linear nodes' cap-1 windows must stay exact",
			res.Inv.LinearViolations)
	}
	if res.Requests == 0 || res.Reads == 0 {
		t.Errorf("replay moved no traffic: %+v", res)
	}
}
