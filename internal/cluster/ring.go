// Package cluster is the cooperative peer tier: it lets N lapcached
// instances form a peer group in which a consistent-hash ring assigns
// every file exactly one owner node — the runtime image of PAFS's
// per-file prefetch servers. A non-owner node's server relays every
// read, write and close of a file to its owner over the binary wire
// protocol and keeps no copy, so each block has one, on its owner; a read the owner
// serves from memory is a remote memory hit instead of a disk read
// (the paper's premise: a remote node's memory is an order of
// magnitude closer than disk), and only
// the owner runs a file's linear-aggressive chain, so "at most one
// outstanding prefetch per file" holds across the whole cluster —
// the property §4 credits for PAFS beating serverless xFS, whose
// per-node predictors between them over-prefetch the same file.
//
// The member list is fixed for a node's whole life (Config.Peers), the
// paper's own setup: every node hashes the same list into the same
// ring. Liveness never changes ownership — a request of a file whose
// owner is down fails, and the client retries, because two nodes
// adopting one file's chain is precisely the xFS failure mode the
// design exists to avoid, and a write taken by any node but the owner
// would land where no other node reads it (DESIGN §8, "Consistency").
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"

	"repro/internal/blockdev"
)

// Ring is a consistent-hash ring over member addresses with virtual
// nodes. It is pure arithmetic on the sorted member list, so every
// node that was given the same membership computes identical
// ownership — no coordination protocol, no disagreement.
type Ring struct {
	members []string
	points  []ringPoint // sorted by hash
}

// ringPoint is one virtual node: a hash position claimed by a member.
type ringPoint struct {
	hash   uint64
	member int // index into members
}

// DefaultVNodes is the virtual-node count per member when the caller
// passes 0 — enough to spread files within a few percent of even
// across 3–16 members.
const DefaultVNodes = 64

// NewRing builds a ring over members (deduplicated, order-insensitive)
// with vnodes virtual nodes each (0 = DefaultVNodes).
func NewRing(members []string, vnodes int) (*Ring, error) {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	seen := make(map[string]bool, len(members))
	uniq := make([]string, 0, len(members))
	for _, m := range members {
		if m == "" {
			return nil, fmt.Errorf("cluster: empty member address")
		}
		if !seen[m] {
			seen[m] = true
			uniq = append(uniq, m)
		}
	}
	if len(uniq) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one member")
	}
	sort.Strings(uniq)
	r := &Ring{members: uniq, points: make([]ringPoint, 0, len(uniq)*vnodes)}
	for mi, m := range uniq {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: pointHash(m, v), member: mi})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		// Hash ties (vanishingly rare) break by member index so the
		// ring stays identical regardless of input order.
		return a.member < b.member
	})
	return r, nil
}

// pointHash places virtual node v of member m on the ring.
func pointHash(m string, v int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(m))   //nolint:errcheck // fnv never fails
	h.Write([]byte{'#'}) //nolint:errcheck
	var buf [4]byte
	buf[0] = byte(v)
	buf[1] = byte(v >> 8)
	buf[2] = byte(v >> 16)
	buf[3] = byte(v >> 24)
	h.Write(buf[:]) //nolint:errcheck
	return mix64(h.Sum64())
}

// fileHash places a file on the ring. Sequential small file IDs leave
// fnv's low-entropy lattice intact — un-mixed, a trace's files 0..N
// sample the ring's arcs badly enough to skew ownership 6:1 — so the
// finalizer scatters them over the full 64-bit circle.
func fileHash(f blockdev.FileID) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	buf[0] = byte(f)
	buf[1] = byte(f >> 8)
	buf[2] = byte(f >> 16)
	buf[3] = byte(f >> 24)
	h.Write(buf[:]) //nolint:errcheck // fnv never fails
	return mix64(h.Sum64())
}

// mix64 is the splitmix64 finalizer: a bijective avalanche so every
// input bit flips about half the output bits.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Owner returns the member owning f: the first virtual node at or
// clockwise after the file's hash, wrapping at the top.
func (r *Ring) Owner(f blockdev.FileID) string {
	h := fileHash(f)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.members[r.points[i].member]
}

// Members returns the sorted member addresses.
func (r *Ring) Members() []string {
	out := make([]string, len(r.members))
	copy(out, r.members)
	return out
}
