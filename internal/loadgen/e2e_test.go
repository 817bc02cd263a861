package loadgen

import (
	"net"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/lapcache"
)

// startNode brings up a poisoned, strict-linear engine + server on a
// loopback port, so the test can tear the node down and interrogate
// its invariants after the firehose stops.
func startNode(t *testing.T, sched *Schedule) (*lapcache.Engine, *lapcache.Server, string) {
	t.Helper()
	eng, err := lapcache.New(lapcache.Config{
		Alg:          core.SpecLnAgrISPPM1,
		BlockSize:    512,
		CacheBlocks:  8192,
		FileBlocks:   sched.FileTable,
		StrictLinear: true,
		PoisonBufs:   true,
		Store:        lapcache.NewMemStore(512, 0),
	})
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	srv := lapcache.NewServer(eng)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(ln)   //nolint:errcheck // exits on Close
	t.Cleanup(func() { // idempotent with the in-test teardown
		srv.Close()
		eng.Shutdown()
	})
	return eng, srv, ln.Addr().String()
}

// checkInvariants asserts the post-firehose server-side state. The
// engine must already be torn down (server closed, Shutdown done):
// only then does DrainCache leave BufLive at exactly zero for a
// leak-free run. PoisonBufs was on throughout, so a use-after-release
// during the run would also have crashed it.
func checkInvariants(t *testing.T, eng *lapcache.Engine) {
	t.Helper()
	if v := eng.Ledger().Violations(); v != 0 {
		t.Errorf("linearity ledger: %d violations, want 0", v)
	}
	if hw := eng.Ledger().MaxHighWater(); hw > 1 {
		t.Errorf("ledger high-water %d, want <= 1 (MaxOutstanding)", hw)
	}
	eng.DrainCache()
	if live := eng.BufLive(); live != 0 {
		t.Errorf("BufLive = %d after drain, want 0 (leaked or double-held buffers)", live)
	}
}

// checkResult asserts the client-side zero-loss contract: every issued
// request resolved exactly once, nothing dropped, nothing errored.
func checkResult(t *testing.T, res *Result, wantIssued int) {
	t.Helper()
	if res.Issued != uint64(wantIssued) {
		t.Errorf("issued %d, want %d", res.Issued, wantIssued)
	}
	if res.Dropped != 0 {
		t.Errorf("dropped %d responses, want 0", res.Dropped)
	}
	if res.Errors != 0 {
		t.Errorf("%d request errors, want 0", res.Errors)
	}
	if res.Deadlines != 0 {
		t.Errorf("%d deadline expiries under a generous deadline, want 0", res.Deadlines)
	}
	if got := res.OK; got != uint64(wantIssued) {
		t.Errorf("ok %d, want %d", got, wantIssued)
	}
	if res.Hist.Count() != uint64(wantIssued) {
		t.Errorf("histogram count %d, want %d", res.Hist.Count(), wantIssued)
	}
}

// TestOpenLoopE2E fires a 30k-request open-loop run — Zipf reads,
// writes, a flash crowd and a thundering herd, with connection churn
// underneath — at a single in-process node, and asserts zero dropped
// responses plus the server-side chaos invariants. This is the
// load gate of make race; -race is what makes the firehose interesting.
func TestOpenLoopE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("firehose e2e skipped in -short")
	}
	// The population is sized so the cache covers a good share of the
	// working set: the point here is invariant pressure under firehose
	// concurrency, not a saturation study (the knee sweep does that).
	sched, err := Build(Config{
		Seed:          1,
		Rate:          25000,
		Requests:      30000,
		Arrival:       ArrivalPoisson,
		Files:         64,
		FileBlocks:    256,
		WriteFraction: 0.1,
		Flash:         &FlashCrowd{StartFrac: 0.3, EndFrac: 0.5, Share: 0.6},
		Herd:          &Herd{AtFrac: 0.7, Burst: 256},
	})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	eng, srv, addr := startNode(t, sched)

	res, err := Run(sched, RunConfig{
		Addrs:      []string{addr},
		Conns:      4,
		Deadline:   30 * time.Second,
		ChurnEvery: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	t.Logf("%v", res)

	checkResult(t, res, len(sched.Reqs))
	srv.Close()
	eng.Shutdown()
	checkInvariants(t, eng)
}

// TestOpenLoopClusterE2E drives the same harness at a 3-node
// cooperative mesh through all three front doors, so requests for
// peer-owned files exercise the forwarding path under open-loop load.
func TestOpenLoopClusterE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster e2e skipped in -short")
	}
	sched, err := Build(Config{
		Seed:       2,
		Rate:       8000,
		Requests:   6000,
		Files:      64,
		FileBlocks: 256,
	})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	nodes, stop, err := cluster.StartLocal(3, func(i int, addrs []string) lapcache.Config {
		return lapcache.Config{
			Alg:          core.SpecLnAgrISPPM1,
			BlockSize:    512,
			CacheBlocks:  2048,
			FileBlocks:   sched.FileTable,
			StrictLinear: true,
			PoisonBufs:   true,
			Store:        lapcache.NewMemStore(512, 0),
		}
	})
	if err != nil {
		t.Fatalf("StartLocal: %v", err)
	}
	defer stop()

	addrs := make([]string, len(nodes))
	for i, n := range nodes {
		addrs[i] = n.Addr
	}
	res, err := Run(sched, RunConfig{
		Addrs:    addrs,
		Conns:    2,
		Deadline: 30 * time.Second,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	t.Logf("%v", res)

	checkResult(t, res, len(sched.Reqs))
	stop() // idempotent; the leak audit needs the mesh fully down
	for _, n := range nodes {
		checkInvariants(t, n.Engine)
	}
}
