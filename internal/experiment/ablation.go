package experiment

import (
	"fmt"
	"strings"

	"repro/internal/core"
)

// AblationSpec is one variant of one design-choice study.
type AblationSpec struct {
	Study   string // e.g. "linearity"
	Variant string // e.g. "linear1"
	Cell    Cell
}

// Ablations enumerates the design-choice studies DESIGN.md calls out.
// The algorithm studies run Ln_Agr_IS_PPM:1 variants on CHARISMA/PAFS
// at 4 MB per node; the cooperation study varies xFS's N-chance
// forwarding under the unmodified algorithm on Sprite at 1 MB per
// node, where eviction pressure makes forwarding matter.
func Ablations() []AblationSpec {
	base := core.SpecLnAgrISPPM1
	var out []AblationSpec
	add := func(study, variant string, alg core.AlgSpec) {
		out = append(out, AblationSpec{Study: study, Variant: variant,
			Cell: Cell{FS: PAFS, Workload: Charisma, Alg: alg, CacheMB: 4}})
	}
	add("linearity", "linear1", base)
	k4 := base
	k4.MaxOutstanding = 4
	add("linearity", "window4", k4)
	unl := base
	unl.MaxOutstanding = 0
	add("linearity", "unlimited", unl)
	// The feedback-controlled window sits between linear1 and the
	// static window4: it starts linear and must earn depth from
	// accuracy and timeliness.
	add("linearity", "adaptive", core.SpecAdAgrISPPM1)

	add("linkPolicy", "mostRecent", base)
	prob := base
	prob.MostProbableLinks = true
	add("linkPolicy", "mostProbable", prob)

	for order := 1; order <= 4; order++ {
		o := base
		o.Order = order
		add("order", fmt.Sprintf("order%d", order), o)
	}

	add("priority", "lowPriority", base)
	up := base
	up.UserPriorityPrefetch = true
	add("priority", "userPriority", up)

	add("fallback", "withFallback", base)
	nofb := base
	nofb.NoFallback = true
	add("fallback", "noFallback", nofb)

	add("modelling", "intervalSize", base)
	bp := base
	bp.Kind = core.AlgBlockPPM
	add("modelling", "blockPPM", bp)

	// What cooperation buys: -1 disables singlet forwarding entirely
	// (every node for itself), 2 is xFS's default.
	for _, c := range []struct {
		variant string
		recirc  int
	}{{"noForwarding", -1}, {"nChance1", 1}, {"nChance2", 2}, {"nChance4", 4}} {
		out = append(out, AblationSpec{Study: "cooperation", Variant: c.variant,
			Cell: Cell{FS: XFS, Workload: Sprite, Alg: base, CacheMB: 1, Recirculations: c.recirc}})
	}
	return out
}

// RunAblations executes every ablation cell at the given scale and
// renders a comparison table.
func RunAblations(s Scale) (string, error) {
	abs := Ablations()
	cells := make([]Cell, len(abs))
	for i, ab := range abs {
		cells[i] = ab.Cell
	}
	results, err := RunCells(s.Trace, cells, s.WarmFraction, 0)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("Design-choice ablations, CHARISMA on PAFS @ 4MB/node\n")
	b.WriteString("(cooperation: Sprite on xFS @ 1MB/node)\n")
	fmt.Fprintf(&b, "(scale %s)\n\n", s.Name)
	fmt.Fprintf(&b, "%-12s %-14s %-28s %10s %10s %12s\n",
		"study", "variant", "algorithm", "read(ms)", "mispred%", "disk ops")
	for i, ab := range abs {
		if i > 0 && ab.Study != abs[i-1].Study {
			b.WriteByte('\n')
		}
		res := results[i]
		fmt.Fprintf(&b, "%-12s %-14s %-28s %10.3f %10.1f %12d\n",
			ab.Study, ab.Variant, ab.Cell.Alg.Name(),
			res.AvgReadMs, 100*res.MispredictionRatio, res.DiskAccesses)
	}
	return b.String(), nil
}
