// Package lapclient is the client side of the lapcache wire protocol:
// a pipelined framed connection (Conn) and a trace replayer that
// drives live lapcached servers with the simulator's workloads — each
// traced process runs the closed loop (think, request, wait) the paper
// models. Every caller holds one Conn per server; there is no second
// client type.
//
// Conn's one exchange, Do, takes the request as a wire.Header: the
// (Op, Flags) pair is the whole request surface, so a peer forward is
// a flag the caller sets, not another method.
package lapclient

import (
	"encoding/json"
	"net"

	"repro/internal/blockdev"
	"repro/internal/lapcache"
	"repro/internal/wire"
)

// PingInfo is what a server reports about itself; Members is its ring.
type PingInfo struct {
	Alg       string   `json:"alg"`
	BlockSize int      `json:"block_size"`
	Members   []string `json:"members,omitempty"`
}

// ConnWrap intercepts a freshly dialed connection before any protocol
// traffic; fault-injection harnesses use it to interpose transport
// faults. nil means no interposition.
type ConnWrap func(net.Conn) net.Conn

// Req builds the request header for op on nblocks blocks of f
// starting at block off.
func Req(op wire.Op, flags wire.Flags, f blockdev.FileID, off blockdev.BlockNo, nblocks int32) wire.Header {
	return wire.Header{Op: op, Flags: flags, File: int32(f), Offset: int32(off), Size: nblocks}
}

// doJSON runs a request whose response payload is a JSON document and
// decodes it into doc.
func doJSON(c *Conn, h wire.Header, doc any) error {
	_, payload, err := c.Do(h, nil, nil)
	if err != nil {
		return err
	}
	return json.Unmarshal(payload, doc)
}

// Ping queries the server's self-description.
func Ping(c *Conn) (info PingInfo, err error) {
	err = doJSON(c, wire.Header{Op: wire.OpPing}, &info)
	return info, err
}

// Stats fetches the server's counter snapshot.
func Stats(c *Conn) (snap lapcache.Snapshot, err error) {
	err = doJSON(c, wire.Header{Op: wire.OpStats}, &snap)
	return snap, err
}
