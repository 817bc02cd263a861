package chaos

import (
	"time"

	"repro/internal/faultinject"
)

// faultPlan is the harness's fault schedule: every fault
// kind at every site the injector supports, tuned so a tiny-scale
// three-node CHARISMA replay absorbs hundreds of injections and still
// terminates well inside replayTimeout. Store rules are keyed
// per (node, block) — bad sectors that heal after a bounded number of
// hits; wire and dial rules are keyed per link with budgets, so every
// partition and storm is transient and the cluster must recover, not
// merely survive.
//
// Delays and hangs are kept short (hundreds of microseconds to tens
// of milliseconds): the point is to reorder and stall the machinery,
// not to burn wall-clock.
func faultPlan(seed uint64) faultinject.Plan {
	return faultinject.Plan{
		Seed: seed,
		Rules: []faultinject.Rule{
			// Backing stores: latency spikes, hard errors, short reads.
			{Site: faultinject.SiteStoreRead, Kind: faultinject.KindDelay, P: 0.5, Count: 2, Delay: 200 * time.Microsecond},
			{Site: faultinject.SiteStoreRead, Kind: faultinject.KindError, P: 0.06, Count: 2},
			{Site: faultinject.SiteStoreRead, Kind: faultinject.KindPartial, P: 0.03, Count: 1},
			{Site: faultinject.SiteStoreWrite, Kind: faultinject.KindError, P: 0.05, Count: 2},
			{Site: faultinject.SiteStoreWrite, Kind: faultinject.KindDelay, P: 0.3, Count: 2, Delay: 200 * time.Microsecond},

			// Wire: corrupted frame headers and truncated frames on the
			// peer links, mid-stream disconnects and stalls everywhere.
			// Budgets on the peer links are generous on purpose: the
			// health loop's own pings spend the first few, so the rest
			// must land on live forwards and drive real refused ones.
			{Site: faultinject.SiteConnSend, Kind: faultinject.KindCorrupt, P: 0.6, Count: 5, Links: []string{"peer:"}},
			{Site: faultinject.SiteConnSend, Kind: faultinject.KindPartial, P: 0.4, Count: 4},
			{Site: faultinject.SiteConnSend, Kind: faultinject.KindHang, P: 0.3, Count: 1, Delay: 20 * time.Millisecond},
			{Site: faultinject.SiteConnRecv, Kind: faultinject.KindError, P: 0.4, Count: 5},

			// Peers: dial failures — selected one direction at a time,
			// so some failures are asymmetric partitions — and slow dials.
			{Site: faultinject.SitePeerDial, Kind: faultinject.KindError, P: 0.5, Count: 5, Links: []string{"peer:"}},
			{Site: faultinject.SitePeerDial, Kind: faultinject.KindDelay, P: 0.3, Count: 2, Delay: 5 * time.Millisecond, Links: []string{"peer:"}},
		},
	}
}
