package cluster

import (
	"testing"
	"time"

	"repro/internal/blockdev"
)

// TestOwnerDegradeRecover is the table-driven owner-failure matrix:
// kill some members, prove reads and writes of an affected file
// degrade to the survivor's local store (availability holds, ownership
// does not move), then restart the dead members and prove the remote
// path comes back — fallbacks stop, peer service resumes. The ring is
// fixed and no failure detector runs: liveness never moves ownership.
func TestOwnerDegradeRecover(t *testing.T) {
	cases := []struct {
		name string
		// kill indexes members RELATIVE to the file: 0 = the file's
		// owner, 1 = the reader, 2 = the bystander.
		kill []int
		// wantFallback: the reader must record remote fallbacks while
		// the dead set holds.
		wantFallback bool
	}{
		{name: "owner dies", kill: []int{0}, wantFallback: true},
		{name: "bystander dies", kill: []int{2}, wantFallback: false},
		{name: "owner and bystander die", kill: []int{0, 2}, wantFallback: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Run("no detector", func(t *testing.T) {
				nodes := startCluster(t, 3, nil)
				owner, reader, bystander := nodes[0], nodes[1], nodes[2]
				roles := []*LocalNode{owner, reader, bystander}
				f := fileOwnedBy(t, nodes, 0)

				// Healthy phase: the forward path works.
				if _, _, err := readCopy(reader.Engine, f, 0, 2); err != nil {
					t.Fatalf("read before failure: %v", err)
				}
				healthyFB := reader.Engine.Snapshot().RemoteFallbacks

				for _, ki := range tc.kill {
					roles[ki].kill()
				}

				// Degraded phase: reads must succeed (possibly after the
				// first attempt surfaces the transport fault and marks the
				// peer down).
				waitFor(t, "degraded read", func() bool {
					_, _, err := readCopy(reader.Engine, f, 8, 4)
					return err == nil
				})
				if err := reader.Engine.Write(f, 20, 2, nil); err != nil {
					t.Fatalf("degraded write: %v", err)
				}
				fb := reader.Engine.Snapshot().RemoteFallbacks
				if tc.wantFallback && fb == healthyFB {
					t.Error("no remote fallbacks recorded with the owner dead")
				}
				if !tc.wantFallback && fb != healthyFB {
					t.Errorf("reader recorded %d fallbacks though the file's owner is alive", fb-healthyFB)
				}
				// Ownership never moves: liveness is not membership.
				if addr, self := reader.Node.OwnerOf(f); self || addr != owner.Addr {
					t.Errorf("ownership moved to %q while the owner was down", addr)
				}

				// Recovery phase: restart the dead members and wait for the
				// reader's health loop to redial them. Restarts run
				// concurrently — each one's WaitReady needs the others up, so
				// sequential restarts of two dead members would deadlock on
				// each other.
				errs := make(chan error, len(tc.kill))
				for _, ki := range tc.kill {
					go func(m *LocalNode) { errs <- m.restart(5 * time.Second) }(roles[ki])
				}
				for range tc.kill {
					if err := <-errs; err != nil {
						t.Fatalf("restart: %v", err)
					}
				}
				for _, ki := range tc.kill {
					addr := roles[ki].Addr
					waitFor(t, "peer redialed", func() bool { return !reader.Node.PeerDown(addr) })
				}

				// The remote path must carry traffic again: a read goes to
				// the (restarted) owner, with no new fallbacks.
				fbBefore := reader.Engine.Snapshot().RemoteFallbacks
				rrBefore := reader.Engine.Snapshot().RemoteReads
				waitFor(t, "remote path recovered", func() bool {
					if _, _, err := readCopy(reader.Engine, f, 40, 2); err != nil {
						return false
					}
					s := reader.Engine.Snapshot()
					return s.RemoteReads > rrBefore && s.RemoteFallbacks == fbBefore
				})
				if addr, _ := reader.Node.OwnerOf(f); addr != owner.Addr {
					t.Errorf("ownership moved to %q across the failure and the recovery", addr)
				}
			})
		})
	}
}

// TestRestartKeepsAddress: a restarted member rebinds its advertise
// address, so the static ring stays valid without any re-hashing.
func TestRestartKeepsAddress(t *testing.T) {
	nodes := startCluster(t, 3, nil)
	m := nodes[1]
	addr := m.Addr
	m.kill()
	if err := m.restart(5 * time.Second); err != nil {
		t.Fatalf("restart: %v", err)
	}
	if m.Addr != addr {
		t.Errorf("restart moved the advertise address %s -> %s", addr, m.Addr)
	}
	// The restarted member serves again: its peers were re-dialed by
	// restart's WaitReady, and a file it owns is readable through it.
	f := fileOwnedBy(t, nodes, 1)
	waitFor(t, "restarted member serves", func() bool {
		_, _, err := readCopy(nodes[0].Engine, f, 0, 1)
		return err == nil
	})
}

// FuzzRing: ownership is total, stable across input order, and every
// owner is a member — for arbitrary membership lists and file IDs.
func FuzzRing(f *testing.F) {
	f.Add("a:1,b:2,c:3", uint32(7), uint16(64))
	f.Add("solo:1", uint32(0), uint16(1))
	f.Add("x:1,x:1,y:2", uint32(1<<31), uint16(3))
	f.Fuzz(func(t *testing.T, memberCSV string, fileID uint32, vn uint16) {
		members := splitCSV(memberCSV)
		vnodes := int(vn % 256)
		r, err := NewRing(members, vnodes)
		if err != nil {
			// Invalid membership (empty list or empty address) must be
			// rejected, never panic — reaching here is a pass.
			return
		}
		file := blockdev.FileID(fileID)
		owner := r.Owner(file)
		found := false
		for _, m := range r.Members() {
			if m == owner {
				found = true
			}
		}
		if !found {
			t.Fatalf("owner %q of file %d is not a member", owner, file)
		}
		// Reversed input order builds the identical ring.
		rev := make([]string, len(members))
		for i, m := range members {
			rev[len(members)-1-i] = m
		}
		r2, err := NewRing(rev, vnodes)
		if err != nil {
			t.Fatalf("reversed membership rejected: %v", err)
		}
		if got := r2.Owner(file); got != owner {
			t.Fatalf("owner depends on membership order: %q vs %q", got, owner)
		}
		// Ownership is stable call to call.
		if again := r.Owner(file); again != owner {
			t.Fatalf("ownership not stable: %q then %q", owner, again)
		}
	})
}

// splitCSV splits on commas without the strings import dance; empty
// segments stay in (NewRing must reject them, not crash).
func splitCSV(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	return out
}
