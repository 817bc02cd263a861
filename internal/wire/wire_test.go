package wire

import (
	"bytes"
	"io"
	"net"
	"testing"
)

func TestHeaderRoundTrip(t *testing.T) {
	want := Header{
		Op: OpRead, Flags: FlagWantData | FlagOK | FlagHit,
		Seq: 0xDEADBEEF, File: -3, Offset: 1 << 30, Size: 42, PayloadLen: 8192,
	}
	var buf [HeaderSize]byte
	PutHeader(buf[:], want)
	got, err := ParseHeader(buf[:])
	if err != nil {
		t.Fatalf("ParseHeader: %v", err)
	}
	if got != want {
		t.Errorf("round trip: got %+v, want %+v", got, want)
	}
}

func TestParseHeaderRejects(t *testing.T) {
	mk := func(mut func(b []byte)) []byte {
		var b [HeaderSize]byte
		PutHeader(b[:], Header{Op: OpPing})
		mut(b[:])
		return b[:]
	}
	cases := []struct {
		name string
		buf  []byte
	}{
		{"short", make([]byte, HeaderSize-1)},
		{"zero op", mk(func(b []byte) { b[0] = 0 })},
		{"bad version", mk(func(b []byte) { b[2] = 9 })},
		{"reserved set", mk(func(b []byte) { b[3] = 1 })},
		{"oversized payload", mk(func(b []byte) { b[20], b[21], b[22], b[23] = 0xFF, 0xFF, 0xFF, 0xFF })},
	}
	for _, tc := range cases {
		if _, err := ParseHeader(tc.buf); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// Foreign bytes are refused from the prefix alone — an old client's
	// JSON line is shorter than a header, so nothing more ever arrives.
	if err := CheckPrefix([]byte(`{"op":"ping"}`)); err == nil {
		t.Error("JSON line passed the prefix check")
	}
	if err := CheckPrefix(mk(func([]byte) {})); err != nil {
		t.Errorf("valid header failed the prefix check: %v", err)
	}
}

// TestParseHeaderSkewTolerance pins the version-skew contract: ops and
// flags this implementation does not know still parse (the frame is
// structurally sound, so the receiver can consume it and answer with
// an error frame), and Known reports them as undispatchable.
func TestParseHeaderSkewTolerance(t *testing.T) {
	mk := func(mut func(b []byte)) []byte {
		var b [HeaderSize]byte
		PutHeader(b[:], Header{Op: OpPing})
		mut(b[:])
		return b[:]
	}

	// Op 6 was the retired ownership query; opMax+37 is a future op.
	for _, tc := range []struct {
		op   byte
		name string
	}{{6, "op(6)"}, {byte(opMax) + 37, "op(42)"}} {
		h, err := ParseHeader(mk(func(b []byte) { b[0] = tc.op }))
		if err != nil {
			t.Fatalf("op %d rejected at parse: %v", tc.op, err)
		}
		if h.Op.Known() {
			t.Errorf("op %d reported as known", h.Op)
		}
		if got := h.Op.String(); got != tc.name {
			t.Errorf("op %d renders as %q, want %q", tc.op, got, tc.name)
		}
	}

	h, err := ParseHeader(mk(func(b []byte) { b[1] = 0xF0 }))
	if err != nil {
		t.Fatalf("future flags rejected at parse: %v", err)
	}
	if h.Flags.Known() {
		t.Errorf("flags %#x reported as known", h.Flags)
	}
	if !(FlagWantData | FlagPeer).Known() {
		t.Error("defined flags reported as unknown")
	}
	if !OpStats.Known() {
		t.Error("OpStats reported as unknown")
	}
}

// frame encodes one complete frame as a FrameBatch queues it, the way
// both ends of the protocol write.
func frame(t testing.TB, h Header, payload []byte) []byte {
	t.Helper()
	var b FrameBatch
	if err := b.AppendFrame(h, payload); err != nil {
		t.Fatalf("AppendFrame: %v", err)
	}
	var out bytes.Buffer
	if err := b.Flush(&out); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	return out.Bytes()
}

// readFrame reads one frame the way the client's read loop does:
// ReadHeader, then ReadPayload.
func readFrame(r io.Reader) (Header, []byte, error) {
	var scratch [HeaderSize]byte
	h, err := ReadHeader(r, scratch[:])
	if err != nil {
		return Header{}, nil, err
	}
	payload, err := ReadPayload(r, h, nil)
	return h, payload, err
}

// serveFrame parses one frame the way the server's read loop does: the
// prefix check, ParseHeader over the first HeaderSize bytes, then
// ReadPayload over the rest. short reports input that passes the
// prefix check (if it is that long) and ends inside the header: the
// server's read of the header fails there, not a parse.
func serveFrame(data []byte) (h Header, payload []byte, short bool, err error) {
	if len(data) < PrefixSize {
		return Header{}, nil, true, nil
	}
	if err := CheckPrefix(data[:PrefixSize]); err != nil {
		return Header{}, nil, false, err
	}
	if len(data) < HeaderSize {
		return Header{}, nil, true, nil
	}
	if h, err = ParseHeader(data[:HeaderSize]); err != nil {
		return Header{}, nil, false, err
	}
	payload, err = ReadPayload(bytes.NewReader(data[HeaderSize:]), h, nil)
	return h, payload, false, err
}

func TestFrameRoundTrip(t *testing.T) {
	payload := bytes.Repeat([]byte{0xA5}, 1000)
	h := Header{Op: OpWrite, Seq: 7, File: 1, Offset: 2, Size: 3}
	got, gotPayload, err := readFrame(bytes.NewReader(frame(t, h, payload)))
	if err != nil {
		t.Fatalf("readFrame: %v", err)
	}
	if got.Op != OpWrite || got.Seq != 7 || int(got.PayloadLen) != len(payload) {
		t.Errorf("header: %+v", got)
	}
	if !bytes.Equal(gotPayload, payload) {
		t.Error("payload mangled")
	}
}

func TestDecodeFrameTruncatedPayload(t *testing.T) {
	data := frame(t, Header{Op: OpWrite, Seq: 1}, make([]byte, 100))
	short := data[:len(data)-40]
	if _, _, err := readFrame(bytes.NewReader(short)); err == nil {
		t.Error("client: truncated payload decoded without error")
	}
	if _, _, _, err := serveFrame(short); err == nil {
		t.Error("server: truncated payload decoded without error")
	}
}

func TestWriteFrameRejectsOversize(t *testing.T) {
	var b FrameBatch
	if err := b.AppendFrame(Header{Op: OpWrite}, make([]byte, MaxPayload+1)); err == nil {
		t.Error("oversized payload queued")
	}
	var scratch [HeaderSize]byte
	var vec net.Buffers
	if err := WriteFrameVectored(io.Discard, scratch[:], Header{Op: OpWrite}, make([]byte, MaxPayload+1), &vec); err == nil {
		t.Error("oversized payload written")
	}
}

// FuzzWireDecode feeds arbitrary bytes to the two frame readers
// production runs — the client's (ReadHeader, ReadPayload) and the
// server's (CheckPrefix, ParseHeader over the first HeaderSize bytes,
// ReadPayload) — which must agree. Each must error or succeed, never
// panic, and never allocate past the declared payload length (enforced
// structurally: ReadPayload only allocates after PayloadLen has been
// validated against MaxPayload).
func FuzzWireDecode(f *testing.F) {
	var seed [HeaderSize]byte
	PutHeader(seed[:], Header{Op: OpRead, Flags: FlagWantData, Seq: 1, File: 2, Offset: 3, Size: 4})
	f.Add(seed[:])
	f.Add(frame(f, Header{Op: OpWrite, Seq: 9}, []byte("payload")))
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	trunc := append([]byte(nil), seed[:]...)
	trunc[20] = 0x80 // claims a payload that is not there
	f.Add(trunc)

	f.Fuzz(func(t *testing.T, data []byte) {
		h, payload, err := readFrame(bytes.NewReader(data))
		sh, spayload, short, serr := serveFrame(data)
		switch {
		case short:
			if err == nil {
				t.Fatalf("client accepted %d bytes, shorter than a header", len(data))
			}
		case (err == nil) != (serr == nil):
			t.Fatalf("client error %v, server error %v", err, serr)
		case err == nil && (sh != h || !bytes.Equal(spayload, payload)):
			t.Fatalf("client read %+v, server %+v", h, sh)
		}
		if err != nil {
			return
		}
		// Success implies internal consistency. Unknown ops and flags
		// are allowed through (skew tolerance); a zero op is not.
		if h.Op == 0 {
			t.Fatalf("decoder accepted op %d", h.Op)
		}
		if uint32(len(payload)) != h.PayloadLen {
			t.Fatalf("payload length %d, header says %d", len(payload), h.PayloadLen)
		}
		if h.PayloadLen > MaxPayload {
			t.Fatalf("decoder accepted payload length %d over MaxPayload", h.PayloadLen)
		}
		// Re-encode and re-decode: must be stable.
		h2, p2, err := readFrame(bytes.NewReader(frame(t, h, payload)))
		if err != nil {
			t.Fatalf("re-decode of accepted frame: %v", err)
		}
		if h2 != h || !bytes.Equal(p2, payload) {
			t.Fatal("frame round trip unstable")
		}
	})
}
