package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/blockdev"
)

// maxShareRatio is the documented balance bound: with DefaultVNodes
// (64) virtual nodes per member, the largest member arc-share divided
// by the smallest stays under this across any 2–16-member ring. Each
// share is a sum of 64 roughly-exponential arcs, so its coefficient
// of variation is ~1/√64 ≈ 12.5%; the observed worst max/min over
// thousands of random member sets is ~2.2, and 2.5 leaves margin
// without hiding a real skew regression (an unmixed hash, say, skews
// 6:1 — see fileHash's comment).
const maxShareRatio = 2.5

// randomMembers draws n distinct synthetic advertise addresses.
func randomMembers(rng *rand.Rand, n int) []string {
	members := make([]string, 0, n)
	seen := map[string]bool{}
	for len(members) < n {
		m := fmt.Sprintf("10.%d.%d.%d:%d",
			rng.Intn(256), rng.Intn(256), rng.Intn(256), 1024+rng.Intn(60000))
		if !seen[m] {
			seen[m] = true
			members = append(members, m)
		}
	}
	return members
}

// arcShares returns each member's exact fraction of r's hash circle —
// the sum of the arcs its virtual nodes claim, out of 2^64. This is
// the stationary distribution of Owner over uniformly hashed files,
// computed in closed form so the balance tests need no sampling.
func arcShares(r *Ring) map[string]float64 {
	arcs := make(map[string]uint64, len(r.members))
	for i, pt := range r.points {
		// The point at points[i] owns the arc ending at its own hash and
		// starting just past the previous point's hash (wrapping).
		var arc uint64
		if i == 0 {
			arc = pt.hash + (^uint64(0) - r.points[len(r.points)-1].hash) + 1
		} else {
			arc = pt.hash - r.points[i-1].hash
		}
		arcs[r.members[pt.member]] += arc
	}
	out := make(map[string]float64, len(arcs))
	for m, a := range arcs {
		out[m] = float64(a) / float64(1<<63) / 2
	}
	return out
}

// TestRingBalanceProperty sweeps 1k random member sets (2–16 nodes)
// and checks, in closed form via exact arc shares (arcShares):
//   - every member's share of the keyspace is within maxShareRatio of
//     every other's (no member gets starved or swamped), and
//   - shares sum to the whole circle (the arc accounting is exact).
func TestRingBalanceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 1000; trial++ {
		n := 2 + rng.Intn(15)
		members := randomMembers(rng, n)
		r, err := NewRing(members, 0)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		shares := arcShares(r)
		if len(shares) != n {
			t.Fatalf("trial %d: %d shares for %d members", trial, len(shares), n)
		}
		sum, mx, mn := 0.0, 0.0, 2.0
		for _, s := range shares {
			sum += s
			mx = math.Max(mx, s)
			mn = math.Min(mn, s)
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("trial %d: shares sum to %v, want 1", trial, sum)
		}
		if ratio := mx / mn; ratio > maxShareRatio {
			t.Fatalf("trial %d (%d members): max/min share ratio %.3f exceeds the documented bound %.1f",
				trial, n, ratio, maxShareRatio)
		}
	}
}

// TestRingJoinLeaveMovesOneNth pins the rebalancing cost model of
// consistent hashing: adding a member re-homes only the keyspace the
// newcomer claims (~1/N of it, within the balance bound), every moved
// file moves TO the newcomer, and removing it moves exactly those
// files back — nothing else ever changes hands. This is the property
// that makes resizing a fleet re-home 1/N of the data, not a full
// reshuffle.
func TestRingJoinLeaveMovesOneNth(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const files = 4000
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(15)
		members := randomMembers(rng, n+1)
		joiner := members[n]
		before, err := NewRing(members[:n], 0)
		if err != nil {
			t.Fatal(err)
		}
		after, err := NewRing(members, 0)
		if err != nil {
			t.Fatal(err)
		}

		moved := 0
		for f := blockdev.FileID(0); f < files; f++ {
			ob, oa := before.Owner(f), after.Owner(f)
			if ob == oa {
				continue
			}
			moved++
			if oa != joiner {
				t.Fatalf("trial %d: file %d moved %s -> %s on a join of %s — only the joiner may gain files",
					trial, f, ob, oa, joiner)
			}
		}
		// The moved fraction is the joiner's exact arc share, which the
		// balance bound confines around 1/(n+1); the sampled count adds
		// binomial noise on top (±4σ at 4000 files is ~3 points).
		frac := float64(moved) / files
		share := arcShares(after)[joiner]
		want := 1.0 / float64(n+1)
		if share > want*maxShareRatio || share < want/maxShareRatio {
			t.Fatalf("trial %d: joiner claims %.4f of the keyspace, want ~%.4f (1/N within %.1fx)",
				trial, share, want, maxShareRatio)
		}
		sigma := math.Sqrt(share * (1 - share) / files)
		if math.Abs(frac-share) > 4*sigma+1.0/files {
			t.Fatalf("trial %d: sampled move fraction %.4f vs exact share %.4f (> 4σ=%.4f apart)",
				trial, frac, share, 4*sigma)
		}
		// Leave is the mirror image: the same files move back.
		for f := blockdev.FileID(0); f < files; f++ {
			ob, oa := before.Owner(f), after.Owner(f)
			if oa == joiner {
				continue
			}
			if ob != oa {
				t.Fatalf("trial %d: file %d owned by %s before and %s after — a leave must restore exactly the joiner's files",
					trial, f, ob, oa)
			}
		}
	}
}
