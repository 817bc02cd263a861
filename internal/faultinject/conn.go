package faultinject

import (
	"fmt"
	"net"
	"time"

	"repro/internal/wire"
)

// Conn wraps a net.Conn with injection at conn.send / conn.recv. The
// key is the connection's stable link label, so a selected link is a
// bad cable: every connection carrying that label misbehaves the same
// way, run after run, until the rule's budget heals it.
type Conn struct {
	net.Conn
	in   *Injector
	link string
	key  uint64
}

// WrapConn wraps c with this injector's conn rules under the given
// stable link label (e.g. "peer:n0->n1", "accept@n2"). A nil injector
// returns c unwrapped.
func (in *Injector) WrapConn(c net.Conn, link string) net.Conn {
	if in == nil {
		return c
	}
	return &Conn{Conn: c, in: in, link: link, key: labelKey(link)}
}

// headerShaped reports whether p starts with what is unmistakably a
// binary frame header: the version and reserved bytes every receiver
// validates. Corruption and truncation key off this so an injected
// flip always lands where the protocol is guaranteed to detect it —
// block payloads carry no checksum, so corrupting them would be the
// silent data damage the chaos harness exists to rule out.
func headerShaped(p []byte) bool {
	return len(p) >= wire.HeaderSize && p[2] == wire.Version && p[3] == 0
}

// Write implements net.Conn with send-side faults: stalls (KindDelay/
// KindHang), mid-stream disconnects (KindError), frame truncation
// (KindPartial: a prefix is written, then the connection severs), and
// header corruption (KindCorrupt: the version byte of a frame-shaped
// write flips, guaranteeing the receiver rejects the frame).
func (c *Conn) Write(p []byte) (int, error) {
	f, ok := c.in.eval(SiteConnSend, c.key, c.link)
	if !ok {
		return c.Conn.Write(p)
	}
	if d := f.stall(); d > 0 {
		time.Sleep(d)
		if f.Kind == KindDelay {
			return c.Conn.Write(p) // stalled write, then delivery
		}
	}
	switch f.Kind {
	case KindPartial:
		n := len(p) / 2
		if headerShaped(p) && n > wire.HeaderSize/2 {
			n = wire.HeaderSize / 2 // tear mid-header: unambiguous truncation
		}
		if n > 0 {
			if wn, err := c.Conn.Write(p[:n]); err != nil {
				return wn, err
			}
		}
		c.Conn.Close()
		return n, fmt.Errorf("%w: truncated write on %s (%d of %d bytes)",
			ErrInjected, c.link, n, len(p))
	case KindCorrupt:
		if headerShaped(p) {
			cp := make([]byte, len(p))
			copy(cp, p)
			cp[2] ^= 0x80 // flip the version byte: ParseHeader must reject it
			n, err := c.Conn.Write(cp)
			if err != nil {
				return n, err
			}
			return len(p), nil
		}
		// Not a frame start (a mid-payload chunk): corrupting
		// here could pass undetected, so deliver intact instead.
		return c.Conn.Write(p)
	default: // KindError, or a KindHang whose stall elapsed
		c.Conn.Close()
		return 0, fmt.Errorf("%w: disconnect on %s", ErrInjected, c.link)
	}
}

// Read implements net.Conn with recv-side faults: stalls and
// mid-stream disconnects.
func (c *Conn) Read(p []byte) (int, error) {
	f, ok := c.in.eval(SiteConnRecv, c.key, c.link)
	if !ok {
		return c.Conn.Read(p)
	}
	if d := f.stall(); d > 0 {
		time.Sleep(d)
		if f.Kind == KindDelay {
			return c.Conn.Read(p)
		}
	}
	c.Conn.Close()
	return 0, fmt.Errorf("%w: disconnect on %s", ErrInjected, c.link)
}
