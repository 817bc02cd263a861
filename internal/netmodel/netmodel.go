// Package netmodel implements the paper's communication model
// (§5.1): every message costs a constant startup (different for
// intra-node and cross-network communication) plus a data-transfer
// time proportional to the message size and the interconnect
// bandwidth. Cross-network transfers contend for the sending node's
// network port, which is a serial resource; intra-node copies contend
// only for the memory bus, modelled as uncontended (memory bandwidth
// is far above any per-node demand in these workloads).
package netmodel

import (
	"fmt"

	"repro/internal/blockdev"
	"repro/internal/machine"
	"repro/internal/sim"
)

// Network models the machine interconnect.
type Network struct {
	cfg    machine.Config
	engine *sim.Engine
	ports  []*sim.Resource
}

// New builds the interconnect for the given machine configuration.
func New(e *sim.Engine, cfg machine.Config) *Network {
	n := &Network{cfg: cfg, engine: e, ports: make([]*sim.Resource, cfg.Nodes)}
	for i := range n.ports {
		n.ports[i] = sim.NewResource(e, fmt.Sprintf("port%d", i))
	}
	return n
}

// LocalCost returns the time to move size bytes within one node: port
// startup + copy startup + size over the memory bandwidth.
func (n *Network) LocalCost(size int64) sim.Duration {
	return n.cfg.LocalPortStartup + n.cfg.LocalCopyStartup +
		sim.TransferTime(size, n.cfg.MemoryBandwidth)
}

// RemoteCost returns the uncontended time to move size bytes between
// two nodes: remote startups + size over the network bandwidth.
func (n *Network) RemoteCost(size int64) sim.Duration {
	return n.cfg.RemotePortStartup + n.cfg.RemoteCopyStartup +
		sim.TransferTime(size, n.cfg.NetworkBandwidth)
}

// Send delivers a message of size bytes from node from to node to and
// fires done at arrival time. Intra-node messages bypass the network
// port; cross-network messages serialize on the sender's port for the
// transfer duration, so a node pumping many blocks queues behind
// itself.
func (n *Network) Send(from, to blockdev.NodeID, size int64, done sim.HandlerID) {
	if int(from) < 0 || int(from) >= len(n.ports) || int(to) < 0 || int(to) >= len(n.ports) {
		panic(fmt.Sprintf("netmodel: send %d -> %d outside machine of %d nodes", from, to, len(n.ports)))
	}
	if from == to {
		n.Local(size, done)
		return
	}
	n.ports[from].Submit(sim.Request{
		Service:  n.RemoteCost(size),
		Priority: sim.PriorityUser,
		Done:     done,
	})
}

// Local models moving size bytes within one node without a message —
// a copy between a node's cache and an application buffer — and fires
// done LocalCost(size) from now. Nothing is contended for.
func (n *Network) Local(size int64, done sim.HandlerID) {
	n.engine.After(n.LocalCost(size), done)
}

// Utilization returns the mean busy fraction across the nodes' network
// ports.
func (n *Network) Utilization() float64 {
	if len(n.ports) == 0 {
		return 0
	}
	var u float64
	for _, p := range n.ports {
		u += p.Utilization()
	}
	return u / float64(len(n.ports))
}

// MaxPortQueueLen returns the deepest send queue observed on any port.
func (n *Network) MaxPortQueueLen() int {
	max := 0
	for _, p := range n.ports {
		if q := p.MaxQueueLen(); q > max {
			max = q
		}
	}
	return max
}

// ControlMessageSize is the size charged for request/response control
// messages (RPC headers) as opposed to block payloads.
const ControlMessageSize int64 = 128
