// Package faultinject is a seeded, deterministic fault plan for the
// lapcache runtime: a description of which operations at which sites
// should fail, stall, truncate or corrupt, evaluated the same way on
// every run with the same seed. It is the substrate of the chaos
// harness (internal/chaos): the harness replays a trace on a live
// cluster while this package decides, site by site, where reality
// misbehaves — and records every decision so a failing run can be
// replayed bit for bit from its seed.
//
// # Determinism
//
// Fault selection is a pure function of (plan seed, rule index, site
// key): a rule with probability P selects the fraction P of its site
// keyspace by hashing, not by sampling a shared PRNG stream. Goroutine
// interleaving therefore cannot change WHICH sites fault — a store
// rule that fails block 7:12 of one run fails block 7:12 of every run
// with that seed. What can vary across runs is which selected sites
// the workload happens to exercise and how many times (both are
// timing-dependent): the observed site set is always a subset of the
// selected set. MatchingRules exposes the pure selection function so a
// harness can enumerate the selected set up front and assert exactly
// that subset relation; Report carries the observed sites and their
// budget-bounded hit counts.
//
// # Sites
//
// Injection hooks thread through the three failure-sensitive layers:
//
//   - store.read / store.write — a BackingStore wrapper (WrapStore);
//     keys are block IDs, so faults model per-block disk defects.
//   - conn.send / conn.recv — a net.Conn wrapper (WrapConn); keys are
//     stable link labels ("peer:n0->n1", "accept@n2"), so faults model
//     per-link transport defects: stalled writes, truncated frames,
//     corrupted headers, mid-stream disconnects.
//   - peer.dial — a dial gate (DialFault); keys are link labels, so
//     faults model asymmetric partitions and redial storms.
//
// Corruption is restricted to frame headers (the version/reserved
// bytes every receiver validates) because block payloads carry no
// checksum: a payload bit-flip would be silent data corruption, which
// is exactly what the chaos harness must prove never reaches a caller.
// Detectable corruption tears the connection; undetectable corruption
// is out of the fault model until the wire grows payload checksums.
package faultinject

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/blockdev"
)

// Kind is a fault flavour. The zero value is invalid.
type Kind string

const (
	// KindError fails the operation with ErrInjected.
	KindError Kind = "error"
	// KindDelay stalls the operation for Rule.Delay before letting it
	// proceed (a latency spike, a slow owner, a stalled write).
	KindDelay Kind = "delay"
	// KindPartial does part of the operation and then fails it: a
	// store read fills a prefix of the buffer before erroring, a
	// connection write sends a prefix of the frame and then severs the
	// connection (frame truncation).
	KindPartial Kind = "partial"
	// KindCorrupt flips a validated header byte in a frame-shaped
	// write, guaranteeing the receiver detects the damage and tears
	// the connection. Valid only at conn.send.
	KindCorrupt Kind = "corrupt"
	// KindHang stalls the operation for Rule.Delay (default
	// DefaultHang — long enough to look wedged, bounded so runs
	// terminate) and then fails it.
	KindHang Kind = "hang"
)

// Site names (Rule.Site).
const (
	SiteStoreRead  = "store.read"
	SiteStoreWrite = "store.write"
	SiteConnSend   = "conn.send"
	SiteConnRecv   = "conn.recv"
	SitePeerDial   = "peer.dial"
)

// DefaultHang bounds a KindHang stall when Rule.Delay is zero. Hangs
// are bounded on purpose: the harness's job is to prove the system
// escapes them through deadlines and failed forwards, and an unbounded
// sleep would turn an injection bug into a hung test run.
const DefaultHang = 500 * time.Millisecond

// ErrInjected marks every failure this package manufactures. The
// chaos harness classifies an error as an expected injection iff its
// message carries this marker (errors cross the wire as strings, so
// the marker — not errors.Is — is the contract).
var ErrInjected = errors.New("faultinject: injected fault")

// Rule is one injection rule: at Site, for the fraction P of the
// site's keyspace (selected deterministically from the plan seed),
// inject Kind on each matching operation, at most Count times per key.
type Rule struct {
	Site string `json:"site"`
	Kind Kind   `json:"kind"`
	// P is the fraction of the site's keyspace the rule selects,
	// in [0, 1]. Selection is per key (per block, per link), not per
	// call: a selected key faults on every call until its budget is
	// spent, an unselected key never faults.
	P float64 `json:"p"`
	// Count caps how many operations each selected key faults
	// (0 = unlimited). A count-bounded rule models a transient fault:
	// the site recovers once the budget is spent.
	Count int64 `json:"count,omitempty"`
	// Delay is the stall for KindDelay and KindHang.
	Delay time.Duration `json:"delay_ns,omitempty"`
	// Links, when non-empty, restricts the rule to keys whose label
	// contains any of these substrings (conn/dial sites; a store
	// site's label names only its block). An asymmetric partition is a
	// dial/conn rule whose Links name one direction only.
	Links []string `json:"links,omitempty"`
}

// Plan is a complete, serializable fault schedule: a seed and a rule
// list. Two injectors built from equal plans make identical
// selections.
type Plan struct {
	Seed  uint64 `json:"seed"`
	Rules []Rule `json:"rules"`
}

// Validate checks every rule names a known site, a kind that is legal
// there, and a probability in range.
func (p Plan) Validate() error {
	for i, r := range p.Rules {
		switch r.Site {
		case SiteStoreRead, SiteStoreWrite:
			if r.Kind == KindCorrupt {
				return fmt.Errorf("faultinject: rule %d: %s cannot corrupt (block payloads carry no checksum; silent corruption is outside the fault model)", i, r.Site)
			}
		case SiteConnSend:
		case SiteConnRecv, SitePeerDial:
			if r.Kind == KindCorrupt || r.Kind == KindPartial {
				return fmt.Errorf("faultinject: rule %d: kind %q is not injectable at %s", i, r.Kind, r.Site)
			}
		default:
			return fmt.Errorf("faultinject: rule %d: unknown site %q", i, r.Site)
		}
		switch r.Kind {
		case KindError, KindDelay, KindPartial, KindCorrupt, KindHang:
		default:
			return fmt.Errorf("faultinject: rule %d: unknown kind %q", i, r.Kind)
		}
		if r.P < 0 || r.P > 1 {
			return fmt.Errorf("faultinject: rule %d: probability %v outside [0,1]", i, r.P)
		}
		if r.Count < 0 {
			return fmt.Errorf("faultinject: rule %d: negative count %d", i, r.Count)
		}
	}
	return nil
}

// Fault is one positive injection decision.
type Fault struct {
	Rule  int
	Kind  Kind
	Delay time.Duration
}

// stall returns the fault's effective stall duration.
func (f Fault) stall() time.Duration {
	if f.Delay > 0 {
		return f.Delay
	}
	if f.Kind == KindHang {
		return DefaultHang
	}
	return 0
}

// siteKey identifies one (rule, key) pair for budgets and reporting.
type siteKey struct {
	rule int
	key  uint64
}

// siteStat is the recorded activity of one faulted site.
type siteStat struct {
	label string
	hits  int64
}

// Injector evaluates a plan. All methods are safe for concurrent use
// and nil-safe: a nil *Injector injects nothing, so call sites need no
// guards.
type Injector struct {
	plan Plan

	mu    sync.Mutex
	sites map[siteKey]*siteStat
	total int64
}

// New validates the plan and returns an injector for it.
func New(plan Plan) (*Injector, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	return &Injector{plan: plan, sites: make(map[siteKey]*siteStat)}, nil
}

// mix64 is the splitmix64 finalizer (bijective avalanche).
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// labelKey hashes a stable site label into the keyspace.
func labelKey(label string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(label)) //nolint:errcheck // fnv never fails
	return h.Sum64()
}

// LabelKey hashes a stable link label into the keyspace — the key
// conn.send/conn.recv/peer.dial sites use, exposed for MatchingRules
// enumeration.
func LabelKey(label string) uint64 { return labelKey(label) }

// StoreSite places block b in the keyspace of store.read/store.write
// and labels it, e.g. "store f3:12" — the site a Store evaluates,
// exposed for MatchingRules enumeration. One block is one site,
// whichever node's store holds it (see Store).
func StoreSite(b blockdev.BlockID) (key uint64, label string) {
	return uint64(uint32(b.File))<<32 | uint64(uint32(b.Block)), fmt.Sprintf("store f%d:%d", b.File, b.Block)
}

// selected reports whether rule ri of the plan picks key — a pure
// function of (seed, rule, site, key), independent of call order.
func (in *Injector) selected(ri int, site string, key uint64) bool {
	r := &in.plan.Rules[ri]
	if r.P <= 0 {
		return false
	}
	if r.P >= 1 {
		return true
	}
	h := mix64(in.plan.Seed ^ mix64(uint64(ri)+1) ^ mix64(labelKey(site)) ^ mix64(key))
	// Compare against P scaled to the full 64-bit range.
	return float64(h)/float64(^uint64(0)) < r.P
}

// matches reports whether rule ri fires at (site, key, label): site
// equality, the Links filter, and the seeded selection —
// everything about the decision except the runtime budget. It is a
// pure function of the plan.
func (in *Injector) matches(ri int, site string, key uint64, label string) bool {
	r := &in.plan.Rules[ri]
	if r.Site != site {
		return false
	}
	if len(r.Links) > 0 {
		found := false
		for _, l := range r.Links {
			if strings.Contains(label, l) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return in.selected(ri, site, key)
}

// MatchingRules reports the plan's deterministic selection decision
// for one concrete site: every rule index that would fire there, in
// plan order, ignoring budgets and recording nothing. It is eval's
// pure core, exposed so a harness can enumerate a plan's faulted-site
// set without running anything — the reproducible half of a chaos run.
// eval fires the FIRST of these with budget remaining, so the rule
// observed at a site is always one of them but, once an earlier
// rule's budget is spent, not necessarily the first (observed sites
// are a timing-dependent subset of this set; see Report.Digest).
func (in *Injector) MatchingRules(site string, key uint64, label string) []int {
	if in == nil {
		return nil
	}
	var rs []int
	for ri := range in.plan.Rules {
		if in.matches(ri, site, key, label) {
			rs = append(rs, ri)
		}
	}
	return rs
}

// eval runs key (with its human-readable label) through every rule at
// site; the first matching rule with remaining budget wins.
func (in *Injector) eval(site string, key uint64, label string) (Fault, bool) {
	if in == nil {
		return Fault{}, false
	}
	for ri := range in.plan.Rules {
		r := &in.plan.Rules[ri]
		if !in.matches(ri, site, key, label) {
			continue
		}
		sk := siteKey{rule: ri, key: key}
		in.mu.Lock()
		st := in.sites[sk]
		if st == nil {
			st = &siteStat{label: label}
			in.sites[sk] = st
		}
		if r.Count > 0 && st.hits >= r.Count {
			in.mu.Unlock()
			continue // budget spent: the site has healed
		}
		st.hits++
		in.total++
		in.mu.Unlock()
		return Fault{Rule: ri, Kind: r.Kind, Delay: r.Delay}, true
	}
	return Fault{}, false
}

// Total returns how many faults have been injected so far.
func (in *Injector) Total() int64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.total
}

// SiteHit is one faulted site in a Report.
type SiteHit struct {
	Rule  int    `json:"rule"`
	Site  string `json:"site"`
	Label string `json:"label"`
	Hits  int64  `json:"hits"`
}

// Report is a frozen view of everything an injector did.
type Report struct {
	Seed  uint64    `json:"seed"`
	Total int64     `json:"total"`
	Sites []SiteHit `json:"sites"`
}

// Report snapshots the injector's activity, sites sorted by (rule,
// site, label) so equal runs render equal reports.
func (in *Injector) Report() Report {
	if in == nil {
		return Report{}
	}
	in.mu.Lock()
	rep := Report{Seed: in.plan.Seed, Total: in.total, Sites: make([]SiteHit, 0, len(in.sites))}
	for sk, st := range in.sites {
		rep.Sites = append(rep.Sites, SiteHit{
			Rule: sk.rule, Site: in.plan.Rules[sk.rule].Site, Label: st.label, Hits: st.hits,
		})
	}
	in.mu.Unlock()
	sort.Slice(rep.Sites, func(i, j int) bool {
		a, b := rep.Sites[i], rep.Sites[j]
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		if a.Site != b.Site {
			return a.Site < b.Site
		}
		return a.Label < b.Label
	})
	return rep
}

// Digest hashes the report's observed fault-site SET — rule, site and
// label, not hit counts. Selection is deterministic by construction,
// but which selected sites a concurrent workload exercises is not, so
// two same-seed runs may observe different subsets of the same
// selected set; the reproducible value is the selection digest a
// harness computes over the full universe with MatchingRules (see
// chaos.PlanDigest), which every observed site must belong to.
func (r Report) Digest() uint64 {
	h := fnv.New64a()
	for _, s := range r.Sites {
		fmt.Fprintf(h, "%d|%s|%s\n", s.Rule, s.Site, s.Label)
	}
	return mix64(r.Seed ^ h.Sum64())
}

// String renders the report for logs and EXPERIMENTS.md.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fault report: seed=%d total=%d sites=%d digest=%016x\n",
		r.Seed, r.Total, len(r.Sites), r.Digest())
	for _, s := range r.Sites {
		fmt.Fprintf(&b, "  rule %d %-11s %-28s hits=%d\n", s.Rule, s.Site, s.Label, s.Hits)
	}
	return b.String()
}

// DialFault gates one peer dial on the given directed link label
// (e.g. "peer:n0->n1"): a selected link's dials fail — an asymmetric
// partition when only one direction is selected — until the rule's
// budget heals it. A KindDelay/KindHang rule stalls the dial instead.
func (in *Injector) DialFault(link string) error {
	f, ok := in.eval(SitePeerDial, labelKey(link), link)
	if !ok {
		return nil
	}
	if d := f.stall(); d > 0 {
		time.Sleep(d)
		if f.Kind == KindDelay {
			return nil
		}
	}
	return fmt.Errorf("%w: dial %s", ErrInjected, link)
}
