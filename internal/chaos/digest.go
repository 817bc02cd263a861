package chaos

import (
	"fmt"
	"hash/fnv"
	"sort"

	"repro/internal/blockdev"
	"repro/internal/faultinject"
)

// selectedSites enumerates the plan's full faulted-site set over a
// run's concrete universe — every block's store site in the run's
// footprint, every directed peer link, every accept label — by
// asking the pure selection function, in a fixed order. fileBlocks
// must be in ENGINE block units (the trace's byte extent divided by
// the engine block size), because that is the keyspace the runtime
// store wrappers evaluate. Every rule that matches a site contributes
// an entry: eval fires the first matching rule with budget left, so
// once an early rule's budget is spent the same site faults under a
// later index — the observed set ranges over all matches. The
// returned set is what every observed fault must belong to; the
// digest over it is the run's reproducibility token: a pure function
// of (plan, trace, topology), independent of any execution.
func selectedSites(inj *faultinject.Injector, nnodes int, fileBlocks map[blockdev.FileID]blockdev.BlockNo) (map[string]int, uint64) {
	sites := make(map[string]int)
	add := func(site string, key uint64, label string) {
		for _, ri := range inj.MatchingRules(site, key, label) {
			sites[fmt.Sprintf("%d|%s|%s", ri, site, label)] = ri
		}
	}

	files := make([]blockdev.FileID, 0, len(fileBlocks))
	for f := range fileBlocks {
		files = append(files, f)
	}
	sort.Slice(files, func(i, j int) bool { return files[i] < files[j] })

	for _, f := range files {
		for b := blockdev.BlockNo(0); b < fileBlocks[f]; b++ {
			key, label := faultinject.StoreSite(blockdev.BlockID{File: f, Block: b})
			add(faultinject.SiteStoreRead, key, label)
			add(faultinject.SiteStoreWrite, key, label)
		}
	}
	links := make([]string, 0, nnodes*nnodes)
	for i := 0; i < nnodes; i++ {
		links = append(links, fmt.Sprintf("accept@n%d", i))
		for j := 0; j < nnodes; j++ {
			if i != j {
				links = append(links, fmt.Sprintf("peer:n%d->n%d", i, j))
			}
		}
	}
	for _, link := range links {
		key := faultinject.LabelKey(link)
		add(faultinject.SiteConnSend, key, link)
		add(faultinject.SiteConnRecv, key, link)
		add(faultinject.SitePeerDial, key, link)
	}
	keys := make([]string, 0, len(sites))
	for k := range sites {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := fnv.New64a()
	for _, k := range keys {
		fmt.Fprintln(h, k)
	}
	return sites, h.Sum64()
}

// unselectedObserved returns every observed report site that the
// selected set does not contain — always empty unless selection has a
// determinism bug (an observed fault at a site the plan, evaluated
// purely, would not pick).
func unselectedObserved(rep faultinject.Report, selected map[string]int) []string {
	var out []string
	for _, s := range rep.Sites {
		k := fmt.Sprintf("%d|%s|%s", s.Rule, s.Site, s.Label)
		if _, ok := selected[k]; !ok {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}
