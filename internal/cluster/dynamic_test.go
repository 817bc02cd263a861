package cluster

import (
	"testing"
	"time"
)

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
