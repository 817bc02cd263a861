package membership

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Gossip message codec. There is one message, one per UDP datagram:
//
//	byte  0           codec version (2)
//	u16 len + bytes   sender advertise address
//	u16               member count
//	per member:       u16 len + addr, 1 byte state, u64 LE incarnation,
//	                  u64 LE heartbeat
//
// Every message carries the sender's full member table: in the small
// clusters this tier targets (single-digit nodes), full-state gossip
// IS the anti-entropy sync — there is no separate push/pull round, and
// a single received datagram fully converges the receiver.
//
// Decode is fed by FuzzMembershipDecode: it must never panic and
// never allocate more than the datagram's own length implies.

// CodecVersion identifies the gossip wire layout.
const CodecVersion = 2

// State is a member's liveness verdict.
type State uint8

const (
	// Alive members own ring arcs and serve traffic.
	Alive State = 0
	// Dead members are removed from the ring and kept as tombstones so
	// a stale Alive row cannot resurrect them without a fresh
	// incarnation.
	Dead State = 1
)

func (s State) String() string {
	switch s {
	case Alive:
		return "alive"
	case Dead:
		return "dead"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// Member is one row of the gossiped table.
type Member struct {
	Addr        string
	State       State
	Incarnation uint64
	Heartbeat   uint64
}

// Message is one decoded gossip datagram.
type Message struct {
	From    string
	Members []Member
}

// Decode limits. A datagram is one UDP packet; anything claiming more
// is corrupt, and the decoder refuses it before allocating.
const (
	maxAddrLen = 256
	maxMembers = 1024
	// rowMin is a member row's size without its address bytes.
	rowMin = 2 + 1 + 8 + 8
	// MaxMessageSize bounds an encoded message; Encode refuses larger.
	MaxMessageSize = 64 << 10
)

var (
	errShort       = errors.New("membership: short message")
	errVersion     = errors.New("membership: unknown codec version")
	errAddrLen     = errors.New("membership: address length out of range")
	errMemberCount = errors.New("membership: member count out of range")
	errState       = errors.New("membership: unknown member state")
	errTrailing    = errors.New("membership: trailing bytes")
	errTooLarge    = errors.New("membership: message exceeds size limit")
)

// Encode serialises m. It refuses messages that would exceed
// MaxMessageSize or whose fields exceed the decode limits, so every
// Encode output round-trips through Decode.
func Encode(m *Message) ([]byte, error) {
	if len(m.From) == 0 || len(m.From) > maxAddrLen {
		return nil, errAddrLen
	}
	if len(m.Members) > maxMembers {
		return nil, errMemberCount
	}
	n := 1 + 2 + len(m.From) + 2
	for _, mm := range m.Members {
		if len(mm.Addr) == 0 || len(mm.Addr) > maxAddrLen {
			return nil, errAddrLen
		}
		if mm.State > Dead {
			return nil, errState
		}
		n += rowMin + len(mm.Addr)
	}
	if n > MaxMessageSize {
		return nil, errTooLarge
	}
	buf := make([]byte, 0, n)
	buf = append(buf, CodecVersion)
	buf = appendString(buf, m.From)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(m.Members)))
	for _, mm := range m.Members {
		buf = appendString(buf, mm.Addr)
		buf = append(buf, byte(mm.State))
		buf = binary.LittleEndian.AppendUint64(buf, mm.Incarnation)
		buf = binary.LittleEndian.AppendUint64(buf, mm.Heartbeat)
	}
	return buf, nil
}

func appendString(buf []byte, s string) []byte {
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(s)))
	return append(buf, s...)
}

// Decode parses one datagram. It validates structure strictly — a
// truncated, oversized, or version-skewed message errors rather than
// yielding a partial table — and copies what it needs, so the caller
// may reuse p.
func Decode(p []byte) (*Message, error) {
	if len(p) > MaxMessageSize {
		return nil, errTooLarge
	}
	if len(p) < 5 {
		return nil, errShort
	}
	if p[0] != CodecVersion {
		return nil, errVersion
	}
	m := &Message{}
	var err error
	rest := p[1:]
	if m.From, rest, err = cutString(rest); err != nil {
		return nil, err
	}
	if len(m.From) == 0 {
		return nil, errAddrLen
	}
	if len(rest) < 2 {
		return nil, errShort
	}
	count := int(binary.LittleEndian.Uint16(rest))
	rest = rest[2:]
	if count > maxMembers {
		return nil, errMemberCount
	}
	// Refuse counts the datagram cannot possibly hold before allocating
	// the slice.
	if count*rowMin > len(rest) {
		return nil, errShort
	}
	m.Members = make([]Member, 0, count)
	for i := 0; i < count; i++ {
		var mm Member
		if mm.Addr, rest, err = cutString(rest); err != nil {
			return nil, err
		}
		if len(mm.Addr) == 0 {
			return nil, errAddrLen
		}
		if len(rest) < rowMin-2 {
			return nil, errShort
		}
		mm.State = State(rest[0])
		if mm.State > Dead {
			return nil, errState
		}
		mm.Incarnation = binary.LittleEndian.Uint64(rest[1:9])
		mm.Heartbeat = binary.LittleEndian.Uint64(rest[9:17])
		rest = rest[17:]
		m.Members = append(m.Members, mm)
	}
	if len(rest) != 0 {
		return nil, errTrailing
	}
	return m, nil
}

func cutString(p []byte) (string, []byte, error) {
	if len(p) < 2 {
		return "", nil, errShort
	}
	n := int(binary.LittleEndian.Uint16(p))
	if n > maxAddrLen {
		return "", nil, errAddrLen
	}
	p = p[2:]
	if len(p) < n {
		return "", nil, errShort
	}
	return string(p[:n]), p[n:], nil
}
