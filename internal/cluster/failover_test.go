package cluster

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/lapcache"
)

// TestOwnerDegradeRecover is the table-driven owner-failure matrix:
// kill some members; while they are dead, a reader's read and write of
// a file whose owner died fail with lapcache.ErrOwnerUnreachable, the
// owner is marked down, and the reader's store is never touched, while
// a file whose owner lives is served as before. Then restart the dead
// members and prove the remote path comes back at once: nothing cached
// the refusal. The ring is fixed and no failure detector runs:
// liveness never moves ownership.
func TestOwnerDegradeRecover(t *testing.T) {
	cases := []struct {
		name string
		// kill indexes members RELATIVE to the file: 0 = the file's
		// owner, 1 = the reader, 2 = the bystander.
		kill []int
		// ownerDead: the file's owner is in the dead set, so the
		// reader's requests must be refused while the set holds.
		ownerDead bool
	}{
		{name: "owner dies", kill: []int{0}, ownerDead: true},
		{name: "bystander dies", kill: []int{2}, ownerDead: false},
		{name: "owner and bystander die", kill: []int{0, 2}, ownerDead: true},
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
				healthy := reader.Engine.Snapshot()

				for _, ki := range tc.kill {
					roles[ki].kill()
				}

				// Outage phase: a request of the file either reaches its
				// owner or fails with the sentinel — never served from, or
				// written to, the reader's own store.
				_, _, rerr := readCopy(reader.Engine, f, 8, 4)
				werr := reader.Engine.Write(f, 20, 2, nil)
				s := reader.Engine.Snapshot()
				if tc.ownerDead {
					if !errors.Is(rerr, lapcache.ErrOwnerUnreachable) || !errors.Is(werr, lapcache.ErrOwnerUnreachable) {
						t.Errorf("with the owner dead: read err=%v, write err=%v; want %v for both",
							rerr, werr, lapcache.ErrOwnerUnreachable)
					}
					if got := s.RemoteFallbacks - healthy.RemoteFallbacks; got != 2 {
						t.Errorf("reader recorded %d refused forwards, want 2 (the read and the write)", got)
					}
					waitFor(t, "owner marked down", func() bool { return reader.Node.PeerDown(owner.Addr) })
				} else {
					if rerr != nil || werr != nil {
						t.Errorf("with the owner alive: read err=%v, write err=%v", rerr, werr)
					}
					if s.RemoteFallbacks != healthy.RemoteFallbacks {
						t.Errorf("reader recorded %d refused forwards though the file's owner is alive",
							s.RemoteFallbacks-healthy.RemoteFallbacks)
					}
				}
				if s.StoreReads != healthy.StoreReads || s.StoreWrites != healthy.StoreWrites {
					t.Errorf("reader touched its own store for a file it does not own: reads %d→%d, writes %d→%d",
						healthy.StoreReads, s.StoreReads, healthy.StoreWrites, s.StoreWrites)
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

				// The remote path carries traffic again from the first
				// read: nothing cached the refusal, and no new one is
				// recorded.
				before := reader.Engine.Snapshot()
				if _, _, err := readCopy(reader.Engine, f, 40, 2); err != nil {
					t.Fatalf("first read after the redial: %v", err)
				}
				if s := reader.Engine.Snapshot(); s.RemoteReads == before.RemoteReads || s.RemoteFallbacks != before.RemoteFallbacks {
					t.Errorf("after the redial: remote reads %d→%d, refusals %d→%d; want the read forwarded",
						before.RemoteReads, s.RemoteReads, before.RemoteFallbacks, s.RemoteFallbacks)
				}
				if addr, _ := reader.Node.OwnerOf(f); addr != owner.Addr {
					t.Errorf("ownership moved to %q across the failure and the recovery", addr)
				}
			})
		})
	}
}

// TestOutageWriteIsNotAcknowledged: a write taken while the file's
// owner is down would land where no other node reads it, so it must
// fail instead. Each member keeps its store across a restart, so the
// returning owner still holds the last acknowledged bytes, and every
// node reads them.
func TestOutageWriteIsNotAcknowledged(t *testing.T) {
	stores := make([]*lapcache.MemStore, 3)
	for i := range stores {
		stores[i] = lapcache.NewMemStore(testBlockSize, 0)
	}
	nodes, stop, err := StartLocal(3, func(i int, _ []string) lapcache.Config {
		return lapcache.Config{
			Alg:          core.SpecNP,
			BlockSize:    testBlockSize,
			CacheBlocks:  64,
			StrictLinear: true,
			PoisonBufs:   true,
			Store:        stores[i],
		}
	})
	if err != nil {
		t.Fatalf("StartLocal: %v", err)
	}
	t.Cleanup(stop)
	a, b, owner := nodes[0], nodes[1], nodes[2]
	f := fileOwnedBy(t, nodes, 2)
	v1 := bytes.Repeat([]byte{0x11}, testBlockSize)
	v2 := bytes.Repeat([]byte{0x22}, testBlockSize)

	if err := b.Engine.Write(f, 0, 1, v1); err != nil {
		t.Fatalf("front B's write of v1: %v", err)
	}

	owner.kill()
	writesBefore := a.Engine.Snapshot().StoreWrites
	if err := a.Engine.Write(f, 0, 1, v2); !errors.Is(err, lapcache.ErrOwnerUnreachable) {
		t.Errorf("front A's write of v2 with the owner down: err=%v, want %v", err, lapcache.ErrOwnerUnreachable)
	}
	if got := a.Engine.Snapshot().StoreWrites; got != writesBefore {
		t.Errorf("front A wrote %d blocks to its own store for a file it does not own", got-writesBefore)
	}

	if err := owner.restart(5 * time.Second); err != nil {
		t.Fatalf("restart: %v", err)
	}
	for _, m := range []*LocalNode{a, b} {
		waitFor(t, "owner redialed", func() bool { return !m.Node.PeerDown(owner.Addr) })
	}
	for _, m := range []*LocalNode{owner, a, b} {
		got, _, err := readCopy(m.Engine, f, 0, 1)
		if err != nil {
			t.Fatalf("node %d's read after the restart: %v", m.Index, err)
		}
		if !bytes.Equal(got, v1) {
			t.Errorf("node %d read %#x..., want v1 (%#x...): the last acknowledged write", m.Index, got[0], v1[0])
		}
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
