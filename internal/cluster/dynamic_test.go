package cluster

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/blockdev"
)

// startReplicatedCluster boots an n-node cluster with static R=2: every
// write of a file is pushed to its ring successor before the ack.
func startReplicatedCluster(t *testing.T, n int) []*LocalNode {
	t.Helper()
	return startClusterWith(t, n, nil, StartLocalOpts{TweakNode: func(_ int, cfg *Config) { cfg.Replicas = 2 }})
}

// replicaRoles returns the owner's ring successor and the bystander
// (the member holding neither copy) for a file owned by owner.
func replicaRoles(t *testing.T, nodes []*LocalNode, owner *LocalNode, f blockdev.FileID) (succ, bystander *LocalNode) {
	t.Helper()
	owners := owner.Node.ring.Owners(f, 2)
	if len(owners) != 2 || owners[0] != owner.Addr {
		t.Fatalf("ring owners are %v, want %s plus a successor", owners, owner.Addr)
	}
	for _, m := range nodes {
		switch m.Addr {
		case owners[0]:
		case owners[1]:
			succ = m
		default:
			bystander = m
		}
	}
	return succ, bystander
}

// TestDynamicFailoverReplicaServes is the successor check behind the
// replicated ack: with static R=2, a write acked FlagReplicated
// survives its owner's death. The ring does not move — liveness never
// moves ownership — so a third node's read, finding the owner down,
// falls back to the ring successor, which holds every replicated block
// in memory: a remote memory hit with the written bytes, not a degrade
// to the local store's synthesized pattern.
func TestDynamicFailoverReplicaServes(t *testing.T) {
	nodes := startReplicatedCluster(t, 3)
	f := fileOwnedBy(t, nodes, 1)
	succ, bystander := replicaRoles(t, nodes, nodes[1], f)

	// Write real (non-pattern) data through the owner, so the bystander
	// caches none of it (a forwarded write installs on the writer); the
	// ack must be the durable one: owner + successor both installed it.
	const nblocks = 4
	data := bytes.Repeat([]byte{0xA5}, nblocks*testBlockSize)
	replicated, err := writeVia(t, nodes[1], 0, f, 0, nblocks, data)
	if err != nil {
		t.Fatalf("write: %v", err)
	}
	if !replicated {
		t.Fatal("write not acked replicated with the whole ring alive")
	}
	if s := succ.Engine.Snapshot(); s.ReplicaInstalls == 0 {
		t.Error("successor recorded no replica installs")
	}

	nodes[1].kill()

	// The bystander's read lands on the successor's memory.
	got, hit, err := readCopy(bystander.Engine, f, 0, nblocks)
	if err != nil {
		t.Fatalf("read after the owner's death: %v", err)
	}
	if !hit {
		t.Error("replica had every block in memory; read should be a remote hit")
	}
	if !bytes.Equal(got, data) {
		t.Error("read after the owner's death returned wrong bytes (replica did not serve the acked write)")
	}
	if s := bystander.Engine.Snapshot(); s.StoreReads != 0 || s.RemoteHits == 0 {
		t.Errorf("bystander: %d local store reads, %d remote hits; the successor's memory should have served the read",
			s.StoreReads, s.RemoteHits)
	}
	if addr, _ := bystander.Node.OwnerOf(f); addr != nodes[1].Addr {
		t.Errorf("ownership moved to %s while the owner was down", addr)
	}
}

// TestDynamicReplicaFallbackBeforeConviction: with static R=2 and no
// failure detector, an owner whose data port is down while its process
// lives keeps its files — FetchSpan falls back to the R=2 successor
// directly and read-repairs the span into the reader's local store.
func TestDynamicReplicaFallbackBeforeConviction(t *testing.T) {
	nodes := startReplicatedCluster(t, 3)
	f := fileOwnedBy(t, nodes, 1)
	_, bystander := replicaRoles(t, nodes, nodes[1], f)

	// Write through the owner itself: the bystander must not have the
	// blocks locally (a forwarded write installs write-through on the
	// writer), or its read never exercises the remote path.
	const nblocks = 2
	data := bytes.Repeat([]byte{0x5A}, nblocks*testBlockSize)
	if replicated, err := writeVia(t, nodes[1], 0, f, 0, nblocks, data); err != nil || !replicated {
		t.Fatalf("replicated write: %v (replicated=%v)", err, replicated)
	}

	// Cut only the owner's TCP server: its node and engine keep running.
	nodes[1].Server.Close()
	waitFor(t, "replica-served read", func() bool {
		got, _, err := readCopy(bystander.Engine, f, 0, nblocks)
		return err == nil && bytes.Equal(got, data)
	})
	waitFor(t, "read-repair write-through", func() bool {
		return bystander.Engine.Snapshot().ReadRepairs > 0
	})
	if addr, _ := bystander.Node.OwnerOf(f); addr != nodes[1].Addr {
		t.Errorf("ownership moved to %s while the owner's data port was down", addr)
	}
}

// TestDynamicRecoveryReprobesOwnership: files that degraded to the
// local store while their owner was down go back to forwarding once it
// is redialed, without a process restart. Nothing caches the degrade
// (each forward to a down peer falls back at the call), and the ring
// alone decides ownership.
func TestDynamicRecoveryReprobesOwnership(t *testing.T) {
	nodes := startCluster(t, 3, nil)
	f := fileOwnedBy(t, nodes, 1)

	if _, _, err := readCopy(nodes[0].Engine, f, 0, 2); err != nil {
		t.Fatalf("read before kill: %v", err)
	}
	nodes[1].kill()
	waitFor(t, "degraded read", func() bool {
		_, _, err := readCopy(nodes[0].Engine, f, 4, 2)
		return err == nil && nodes[0].Node.PeerDown(nodes[1].Addr)
	})

	if err := nodes[1].restart(5 * time.Second); err != nil {
		t.Fatalf("restart: %v", err)
	}
	waitFor(t, "peer redialed", func() bool {
		return !nodes[0].Node.PeerDown(nodes[1].Addr)
	})
	// Forwarding must resume: remote reads grow again, fallbacks stop.
	before := nodes[0].Engine.Snapshot()
	waitFor(t, "forwarding to resume", func() bool {
		if _, _, err := readCopy(nodes[0].Engine, f, 8, 2); err != nil {
			return false
		}
		s := nodes[0].Engine.Snapshot()
		return s.RemoteReads > before.RemoteReads && s.RemoteFallbacks == before.RemoteFallbacks
	})
}
