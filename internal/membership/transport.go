package membership

import (
	"errors"
	"net"
	"time"
)

// Transport moves gossip datagrams. The production implementation is
// UDP on the node's advertise port (TCP carries blocks, UDP carries
// gossip — separate port spaces, same number, so one address names
// both); tests substitute an in-memory hub to script partitions
// deterministically.
type Transport interface {
	// WriteTo sends one datagram, best-effort: gossip tolerates loss
	// by design, so implementations may drop rather than block.
	WriteTo(p []byte, addr string) error
	// ReadFrom blocks for the next datagram, returning the payload
	// length and sender transport address. It returns an error only
	// when the transport is closed or broken.
	ReadFrom(p []byte) (n int, from string, err error)
	Close() error
}

// ErrTransportClosed reports a read on a closed transport.
var ErrTransportClosed = errors.New("membership: transport closed")

// udpTransport is the production transport: one UDP socket bound to
// the advertise address's port.
type udpTransport struct {
	pc *net.UDPConn
}

// ListenUDP binds a UDP gossip socket on addr (host:port; port 0
// picks one).
func ListenUDP(addr string) (Transport, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	pc, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, err
	}
	return &udpTransport{pc: pc}, nil
}

func (t *udpTransport) WriteTo(p []byte, addr string) error {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return err
	}
	// Gossip is loss-tolerant; a send must never wedge the probe loop.
	t.pc.SetWriteDeadline(time.Now().Add(time.Second))
	_, err = t.pc.WriteToUDP(p, ua)
	return err
}

func (t *udpTransport) ReadFrom(p []byte) (int, string, error) {
	n, from, err := t.pc.ReadFromUDP(p)
	if err != nil {
		if errors.Is(err, net.ErrClosed) {
			return 0, "", ErrTransportClosed
		}
		return 0, "", err
	}
	return n, from.String(), nil
}

func (t *udpTransport) Close() error { return t.pc.Close() }
