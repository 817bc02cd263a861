package lapcache

import "repro/internal/blockdev"

// The cooperative peer tier (internal/cluster) plugs into the engine
// and the server through the two small interfaces below, rather than
// by importing the cluster package: lapclient imports lapcache for the
// wire types, cluster imports lapclient for the peer connections, so
// lapcache must stay at the bottom of that stack.
//
// The division of labour mirrors the paper's PAFS architecture. A
// consistent-hash ring assigns every file one owner, the runtime image
// of the per-file prefetch server; only the owner runs the file's
// linear-aggressive chain, so the "at most one outstanding prefetch
// per file" invariant holds across the whole cluster — the property
// §4 credits for PAFS beating serverless xFS, whose per-node
// predictors between them over-prefetch the same file. A non-owner
// node keeps no copy of the file's blocks: it forwards every read and
// write of the file to the owner, whose memory is an order of
// magnitude closer than disk, and each block has one copy, there.

// RemoteFetcher is the engine's hook into the peer tier. A nil
// RemoteFetcher (the default) is a single-node engine: every file is
// owned locally and nothing is forwarded. Implementations must be safe
// for concurrent use; every method is called without engine locks
// held.
type RemoteFetcher interface {
	// Owned reports whether this node owns f — runs its prefetch
	// chain and serves its backing-store reads. Pure ring arithmetic
	// over a fixed member list: it must be cheap, deterministic,
	// identical on every node, and constant for the node's life (the
	// engine decides a file's driver placement once).
	Owned(f blockdev.FileID) bool

	// FetchSpan reads nblocks blocks of f starting at off from the
	// file's owner, landing one block per dsts slice (each pre-sized
	// to the block size): the caller's own buffers, which the engine
	// hands to its client and never caches. hit reports the owner
	// answered every block from its memory: a remote memory hit, the
	// cooperative-cache fast path. ok=false means the owner is
	// unreachable: the caller degrades to its local store. err is only
	// non-nil when ok is true: the owner itself refused the request.
	FetchSpan(f blockdev.FileID, off blockdev.BlockNo, nblocks int32, dsts [][]byte) (hit, ok bool, err error)

	// ForwardWrite sends a write of f to its owner so the data lands
	// in the owner's store and cache, the block's one copy. Semantics
	// of ok and err match FetchSpan: ok=false degrades the write to
	// the local store, where no other node will read it.
	ForwardWrite(f blockdev.FileID, off blockdev.BlockNo, nblocks int32, data []byte) (ok bool, err error)

	// ForwardClose tells f's owner this node's clients are done with
	// the file for now, parking the owner-side prefetch chain.
	// Best-effort: a down owner has no chain to park.
	ForwardClose(f blockdev.FileID) (ok bool, err error)
}
