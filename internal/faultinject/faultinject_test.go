package faultinject

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/blockdev"
)

// mustNew builds an injector or fails the test.
func mustNew(t *testing.T, p Plan) *Injector {
	t.Helper()
	in, err := New(p)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return in
}

func TestValidateRejectsBadPlans(t *testing.T) {
	bad := []Plan{
		{Rules: []Rule{{Site: "store.fsync", Kind: KindError, P: 1}}},
		{Rules: []Rule{{Site: SiteStoreRead, Kind: "explode", P: 1}}},
		{Rules: []Rule{{Site: SiteStoreRead, Kind: KindCorrupt, P: 1}}},
		{Rules: []Rule{{Site: SiteConnRecv, Kind: KindCorrupt, P: 1}}},
		{Rules: []Rule{{Site: SiteConnRecv, Kind: KindPartial, P: 1}}},
		{Rules: []Rule{{Site: SitePeerDial, Kind: KindPartial, P: 1}}},
		{Rules: []Rule{{Site: SiteConnSend, Kind: KindError, P: 1.5}}},
		{Rules: []Rule{{Site: SiteConnSend, Kind: KindError, P: -0.1}}},
		{Rules: []Rule{{Site: SiteConnSend, Kind: KindError, P: 1, Count: -2}}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("plan %d: Validate accepted an invalid plan", i)
		}
	}
	good := Plan{Seed: 3, Rules: []Rule{
		{Site: SiteStoreRead, Kind: KindPartial, P: 0.5, Count: 1},
		{Site: SiteConnSend, Kind: KindCorrupt, P: 0.5},
		{Site: SitePeerDial, Kind: KindHang, P: 0.1, Delay: time.Millisecond},
	}}
	if err := good.Validate(); err != nil {
		t.Errorf("Validate rejected a valid plan: %v", err)
	}
}

// TestSelectionIsDeterministic: two injectors from equal plans make
// identical decisions for every key, and the selected fraction tracks
// P — the core reproducibility contract.
func TestSelectionIsDeterministic(t *testing.T) {
	plan := Plan{Seed: 42, Rules: []Rule{{Site: SiteStoreRead, Kind: KindError, P: 0.25}}}
	a, b := mustNew(t, plan), mustNew(t, plan)
	const n = 20000
	hits := 0
	for k := uint64(0); k < n; k++ {
		ra := a.MatchingRules(SiteStoreRead, k, "lbl")
		rb := b.MatchingRules(SiteStoreRead, k, "lbl")
		if len(ra) != len(rb) {
			t.Fatalf("key %d: injectors disagree (%v vs %v)", k, ra, rb)
		}
		if len(ra) > 0 {
			hits++
		}
	}
	got := float64(hits) / n
	if got < 0.22 || got > 0.28 {
		t.Errorf("P=0.25 selected %.4f of the keyspace; hashing is biased", got)
	}
}

// TestSelectionVariesWithSeedRuleSite: changing any hash input moves
// the selected set — no accidental aliasing between rules or sites.
func TestSelectionVariesWithSeedRuleSite(t *testing.T) {
	base := Plan{Seed: 1, Rules: []Rule{
		{Site: SiteStoreRead, Kind: KindError, P: 0.5},
		{Site: SiteStoreWrite, Kind: KindError, P: 0.5},
	}}
	other := base
	other.Seed = 2
	a, b := mustNew(t, base), mustNew(t, other)
	const n = 4096
	diffSeed, diffSite := 0, 0
	for k := uint64(0); k < n; k++ {
		ar := len(a.MatchingRules(SiteStoreRead, k, "l")) > 0
		br := len(b.MatchingRules(SiteStoreRead, k, "l")) > 0
		aw := len(a.MatchingRules(SiteStoreWrite, k, "l")) > 0
		if ar != br {
			diffSeed++
		}
		if ar != aw {
			diffSite++
		}
	}
	if diffSeed == 0 {
		t.Error("seed change did not move the selected set")
	}
	if diffSite == 0 {
		t.Error("read and write rules select identical keys; site not in the hash")
	}
}

// TestBudgetFallThrough: once a rule's Count is spent the site heals
// into the NEXT matching rule — and MatchingRules names both, so the
// observed rule is always within the enumerated selection.
func TestBudgetFallThrough(t *testing.T) {
	plan := Plan{Seed: 7, Rules: []Rule{
		{Site: SiteStoreRead, Kind: KindDelay, P: 1, Count: 2, Delay: time.Microsecond},
		{Site: SiteStoreRead, Kind: KindError, P: 1, Count: 1},
	}}
	in := mustNew(t, plan)
	want := []struct {
		rule int
		ok   bool
	}{{0, true}, {0, true}, {1, true}, {0, false}, {0, false}}
	for i, w := range want {
		f, ok := in.eval(SiteStoreRead, 9, "l")
		if ok != w.ok || (ok && f.Rule != w.rule) {
			t.Fatalf("call %d: got rule=%d ok=%v, want rule=%d ok=%v", i, f.Rule, ok, w.rule, w.ok)
		}
	}
	rs := in.MatchingRules(SiteStoreRead, 9, "l")
	if len(rs) != 2 || rs[0] != 0 || rs[1] != 1 {
		t.Errorf("MatchingRules = %v, want [0 1] (both rules select at P=1)", rs)
	}
	rep := in.Report()
	if rep.Total != 3 {
		t.Errorf("Total = %d, want 3 (2 + 1 budget)", rep.Total)
	}
	// Every observed (rule, key) must be in the MatchingRules set.
	for _, s := range rep.Sites {
		found := false
		for _, ri := range rs {
			if s.Rule == ri {
				found = true
			}
		}
		if !found {
			t.Errorf("observed rule %d outside MatchingRules %v", s.Rule, rs)
		}
	}
}

// TestBudgetIsPerKey: Count budgets are per selected key, not global.
func TestBudgetIsPerKey(t *testing.T) {
	in := mustNew(t, Plan{Rules: []Rule{{Site: SitePeerDial, Kind: KindError, P: 1, Count: 1}}})
	for _, key := range []uint64{1, 2, 3} {
		if _, ok := in.eval(SitePeerDial, key, "l"); !ok {
			t.Fatalf("key %d: first call should fault", key)
		}
		if _, ok := in.eval(SitePeerDial, key, "l"); ok {
			t.Fatalf("key %d: budget 1 spent, second call should pass", key)
		}
	}
	if got := in.Total(); got != 3 {
		t.Errorf("Total = %d, want 3", got)
	}
}

func TestFileAndLinkSelectors(t *testing.T) {
	in := mustNew(t, Plan{Rules: []Rule{
		{Site: SitePeerDial, Kind: KindError, P: 1, Links: []string{"->n2"}},
	}})
	if err := in.DialFault("peer:n0->n2"); err == nil {
		t.Error("link peer:n0->n2 should match Links:[->n2]")
	}
	if err := in.DialFault("peer:n2->n0"); err != nil {
		t.Errorf("link peer:n2->n0 must not match Links:[->n2]: %v", err)
	}
}

// TestNilInjectorInjectsNothing: every entry point is nil-safe.
func TestNilInjectorInjectsNothing(t *testing.T) {
	var in *Injector
	if _, ok := in.eval(SiteStoreRead, 1, "l"); ok {
		t.Error("nil injector faulted")
	}
	if err := in.DialFault("peer:n0->n1"); err != nil {
		t.Errorf("nil DialFault: %v", err)
	}
	if rs := in.MatchingRules(SiteStoreRead, 1, "l"); rs != nil {
		t.Errorf("nil MatchingRules = %v", rs)
	}
	if in.Total() != 0 || in.Report().Total != 0 {
		t.Error("nil injector reported activity")
	}
}

// TestStoreWrapper: read/write faults carry the ErrInjected marker and
// the partial-read contract (prefix real, tail zeroed, error mandatory).
func TestStoreWrapper(t *testing.T) {
	mem := newMemStore(64)
	b := blockdev.BlockID{File: 1, Block: 2}
	seed := make([]byte, 64)
	for i := range seed {
		seed[i] = byte(i + 1)
	}
	if err := mem.WriteBlock(b, seed); err != nil {
		t.Fatal(err)
	}

	in := mustNew(t, Plan{Rules: []Rule{{Site: SiteStoreRead, Kind: KindPartial, P: 1, Count: 1}}})
	st := in.WrapStore(mem)
	buf := make([]byte, 64)
	err := st.ReadBlock(b, buf)
	if err == nil || !strings.Contains(err.Error(), "faultinject") {
		t.Fatalf("partial read error = %v, want ErrInjected marker", err)
	}
	if !errors.Is(err, ErrInjected) {
		t.Error("partial read error does not wrap ErrInjected")
	}
	for i := 0; i < 32; i++ {
		if buf[i] != seed[i] {
			t.Fatalf("byte %d: prefix should be real data", i)
		}
	}
	for i := 32; i < 64; i++ {
		if buf[i] != 0 {
			t.Fatalf("byte %d: tail should be zeroed", i)
		}
	}
	// Budget spent: the site heals and the full block comes back.
	if err := st.ReadBlock(b, buf); err != nil {
		t.Fatalf("healed read: %v", err)
	}
	for i := range buf {
		if buf[i] != seed[i] {
			t.Fatalf("byte %d: healed read returned wrong data", i)
		}
	}
}

// TestStoreSiteIsPerBlock: a store site is its block alone, so two
// nodes' stores share one site per block and its budget: a fault one
// store spent is spent for the other too. (Only a block's owner
// touches its store, so a per-node site could never fire on the
// others.) Distinct blocks are distinct sites.
func TestStoreSiteIsPerBlock(t *testing.T) {
	b := blockdev.BlockID{File: 5, Block: 9}
	k0, l0 := StoreSite(b)
	if k1, l1 := StoreSite(b); k0 != k1 || l0 != l1 || l0 != "store f5:9" {
		t.Errorf("StoreSite(%v) = (%x, %q) then (%x, %q), want one stable site labeled \"store f5:9\"", b, k0, l0, k1, l1)
	}
	if k, _ := StoreSite(blockdev.BlockID{File: 9, Block: 5}); k == k0 {
		t.Error("StoreSite maps two blocks to one key")
	}
	in := mustNew(t, Plan{Rules: []Rule{{Site: SiteStoreWrite, Kind: KindError, P: 1, Count: 1}}})
	a, c := in.WrapStore(newMemStore(64)), in.WrapStore(newMemStore(64))
	if err := a.WriteBlock(b, make([]byte, 64)); !errors.Is(err, ErrInjected) {
		t.Fatalf("first write: %v, want the injected fault", err)
	}
	if err := c.WriteBlock(b, make([]byte, 64)); err != nil {
		t.Errorf("other store's write of the same block: %v, want the site healed", err)
	}
}

// TestReportDeterminism: same plan, same call sequence → same report
// and digest; the digest ignores hit counts but not sites.
func TestReportDeterminism(t *testing.T) {
	run := func() Report {
		in := mustNew(t, Plan{Seed: 11, Rules: []Rule{
			{Site: SiteStoreRead, Kind: KindError, P: 0.5},
		}})
		for k := uint64(0); k < 64; k++ {
			in.eval(SiteStoreRead, k, "lbl")
		}
		return in.Report()
	}
	a, b := run(), run()
	if a.Digest() != b.Digest() {
		t.Errorf("same runs, different digests: %016x vs %016x", a.Digest(), b.Digest())
	}
	if len(a.Sites) == 0 {
		t.Fatal("P=0.5 over 64 keys observed nothing")
	}
	// Hit counts do not move the digest; dropping a site does.
	c := a
	c.Sites = append([]SiteHit(nil), a.Sites...)
	c.Sites[0].Hits += 5
	if c.Digest() != a.Digest() {
		t.Error("digest depends on hit counts")
	}
	c.Sites = c.Sites[1:]
	if c.Digest() == a.Digest() {
		t.Error("digest ignored a dropped site")
	}
}

// TestConcurrentEvalIsRaceFreeAndBudgeted: hammer one budgeted site
// from many goroutines; total injections must equal the budget.
func TestConcurrentEvalIsRaceFreeAndBudgeted(t *testing.T) {
	in := mustNew(t, Plan{Rules: []Rule{{Site: SiteConnSend, Kind: KindError, P: 1, Count: 100}}})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				in.eval(SiteConnSend, 7, "link")
			}
		}()
	}
	wg.Wait()
	if got := in.Total(); got != 100 {
		t.Errorf("Total = %d, want exactly the budget 100", got)
	}
}

// memStore is a minimal in-memory BlockStore for wrapper tests.
type memStore struct {
	mu   sync.Mutex
	size int
	m    map[blockdev.BlockID][]byte
}

func newMemStore(size int) *memStore {
	return &memStore{size: size, m: make(map[blockdev.BlockID][]byte)}
}

func (s *memStore) ReadBlock(b blockdev.BlockID, buf []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	copy(buf, s.m[b])
	return nil
}

func (s *memStore) WriteBlock(b blockdev.BlockID, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[b] = append([]byte(nil), data...)
	return nil
}
