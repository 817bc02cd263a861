// Package lapclient is the client side of the lapcache wire protocol:
// a pipelined framed connection (Conn), a churn-tolerant pool of them
// (Pool), and a trace replayer that drives a live lapcached server
// with the simulator's workloads — each traced process runs the
// closed loop (think, request, wait) the paper models.
//
// Both Conn and Pool expose the same one exchange, Do, which takes the
// request as a wire.Header: the (Op, Flags) pair is the whole request
// surface, so a peer forward or a replica install is a flag the caller
// sets, not another method.
package lapclient

import (
	"encoding/json"
	"net"

	"repro/internal/blockdev"
	"repro/internal/lapcache"
	"repro/internal/wire"
)

// PingInfo is what a server reports about itself.
type PingInfo struct {
	Alg       string `json:"alg"`
	BlockSize int    `json:"block_size"`
}

// ConnWrap intercepts a freshly dialed connection before any protocol
// traffic; fault-injection harnesses use it to interpose transport
// faults. nil means no interposition.
type ConnWrap func(net.Conn) net.Conn

// Exchanger runs one request/response exchange; Conn and Pool both
// do.
type Exchanger interface {
	Do(h wire.Header, payload []byte, dsts [][]byte) (wire.Header, []byte, error)
}

// Req builds the request header for op on nblocks blocks of f
// starting at block off.
func Req(op wire.Op, flags wire.Flags, f blockdev.FileID, off blockdev.BlockNo, nblocks int32) wire.Header {
	return wire.Header{Op: op, Flags: flags, File: int32(f), Offset: int32(off), Size: nblocks}
}

// doJSON runs a request whose response payload is a JSON document and
// decodes it into doc.
func doJSON(x Exchanger, h wire.Header, doc any) error {
	_, payload, err := x.Do(h, nil, nil)
	if err != nil {
		return err
	}
	return json.Unmarshal(payload, doc)
}

// Ping queries the server's self-description.
func Ping(x Exchanger) (info PingInfo, err error) {
	err = doJSON(x, wire.Header{Op: wire.OpPing}, &info)
	return info, err
}

// Stats fetches the server's counter snapshot.
func Stats(x Exchanger) (snap lapcache.Snapshot, err error) {
	err = doJSON(x, wire.Header{Op: wire.OpStats}, &snap)
	return snap, err
}

// Owner asks a clustered server which node owns f on the ring.
func Owner(x Exchanger, f blockdev.FileID) (addr string, self bool, err error) {
	var doc struct {
		Owner string `json:"owner"`
		Self  bool   `json:"self"`
	}
	err = doJSON(x, wire.Header{Op: wire.OpOwner, File: int32(f)}, &doc)
	return doc.Owner, doc.Self, err
}
