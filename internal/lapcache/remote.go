package lapcache

import (
	"errors"

	"repro/internal/blockbuf"
	"repro/internal/blockdev"
	"repro/internal/wire"
)

// The cooperative peer tier (internal/cluster) plugs into the server
// through RemoteFetcher below, rather than by importing the cluster
// package: lapclient imports lapcache for the wire types, cluster
// imports lapclient for the peer connections, so lapcache must stay at
// the bottom of that stack.
//
// The division of labour mirrors the paper's PAFS architecture. A
// consistent-hash ring assigns every file one owner, the runtime image
// of the per-file prefetch server; only the owner runs the file's
// linear-aggressive chain, so the "at most one outstanding prefetch
// per file" invariant holds across the whole cluster — the property
// §4 credits for PAFS beating serverless xFS, whose per-node
// predictors between them over-prefetch the same file. The server
// alone knows the ring: it relays a client's read, write or close of a
// file owned elsewhere to the owner, as the client sent it, and refuses
// a peer's, so each block has one copy, on its owner, and the engine
// sees only files this node owns.

// ErrOwnerUnreachable fails a client's read, write or close of a file
// owned elsewhere when the owner could not be reached; nothing is
// served from, or written to, this node's store instead. A client
// matches its text in the server's error frame, and retries.
var ErrOwnerUnreachable = errors.New("lapcache: owner unreachable")

// ErrNotOwner refuses a peer's request of a file this node's ring
// gives another member: the two were started on different rings.
var ErrNotOwner = errors.New("lapcache: not the owner")

// RemoteFetcher is the server's hook into the peer tier (Server.Remote).
// A nil RemoteFetcher (the default) is a single node: every file is
// owned locally and nothing is relayed. Implementations must be safe
// for concurrent use.
type RemoteFetcher interface {
	// Owned reports whether this node owns f: serves its requests and
	// runs its prefetch chain. Pure ring arithmetic over a fixed member
	// list: cheap, deterministic and constant for the node's life.
	Owned(f blockdev.FileID) bool

	// Forward sends one request, h with its payload, to the owner of
	// file h.File and returns the owner's response header. A read
	// response's payload lands in dsts, one pre-sized slice per block
	// (nil for a read without FlagWantData). It fails with
	// ErrOwnerUnreachable, unwrapped, or, when the owner was reached
	// and refused, with an error whose text is the owner's message.
	Forward(h wire.Header, payload []byte, dsts [][]byte) (wire.Header, error)

	// Members returns the ring's member list, sorted, for the ping.
	Members() []string
}

// relayed reports whether the server sends hd on to its file's owner:
// a client's read, write or close of a file this node does not own. A
// peer's request is never relayed, which keeps forwarding loop-free,
// and a span the engine refuses stays here to be refused.
func (s *Server) relayed(hd wire.Header) bool {
	return hd.Flags&wire.FlagPeer == 0 && s.foreign(hd) &&
		(hd.Op == wire.OpClose || s.e.spanOK(blockdev.BlockNo(hd.Offset), hd.Size))
}

// foreign reports whether hd is a read, write or close of a file this
// node does not own: a client's is relayed, a peer's refused.
func (s *Server) foreign(hd wire.Header) bool {
	named := hd.Op == wire.OpRead || hd.Op == wire.OpWrite || hd.Op == wire.OpClose
	return named && s.Remote != nil && !s.Remote.Owned(blockdev.FileID(hd.File))
}

// relay answers hd from its file's owner: one Forward of the client's
// own header, FlagPeer set, and payload. A read that wants data lands
// in fresh buffers appended to bufs for the response; this node keeps
// no copy and runs no driver for the file. The owner's refusal reaches
// the client as the owner worded it. It books the front's remote
// counters: blocks read from the owner, by whether the owner answered
// every one from memory (a cooperative-cache hit), writes it took, and
// requests refused with the owner unreachable.
func (s *Server) relay(bufs []*blockbuf.Buf, hd wire.Header, payload []byte) (wire.Header, []byte, []*blockbuf.Buf) {
	e := s.e
	var (
		dp   *[][]byte
		dsts [][]byte
	)
	if hd.Op == wire.OpRead && hd.Flags&wire.FlagWantData != 0 {
		if dp, _ = s.dsts.Get().(*[][]byte); dp == nil {
			dp = new([][]byte)
		}
		dsts = (*dp)[:0]
		for range hd.Size {
			buf := e.pool.Get()
			bufs = append(bufs, buf)
			dsts = append(dsts, buf.Bytes())
		}
	}
	req := hd
	req.Flags |= wire.FlagPeer
	rh, err := s.Remote.Forward(req, payload, dsts)
	if dp != nil {
		clear(dsts) // drop the block references before pooling
		*dp = dsts[:0]
		s.dsts.Put(dp)
	}
	if err != nil {
		if errors.Is(err, ErrOwnerUnreachable) {
			e.m.remoteFallbacks.Add(1)
		}
		return wire.Header{Op: hd.Op, Seq: hd.Seq}, []byte(err.Error()), dropFrom(bufs, 0)
	}
	switch hd.Op {
	case wire.OpRead:
		e.m.remoteReads.Add(uint64(hd.Size))
		if rh.Flags&wire.FlagHit != 0 {
			e.m.remoteHits.Add(uint64(hd.Size))
		} else {
			e.m.remoteMisses.Add(uint64(hd.Size))
		}
	case wire.OpWrite:
		e.m.forwardedWrites.Add(1)
		e.m.writes.Add(1)
	}
	out := wire.Header{Op: hd.Op, Flags: rh.Flags, Seq: hd.Seq, PayloadLen: uint32(len(bufs) * e.cfg.BlockSize)}
	return out, nil, bufs
}
