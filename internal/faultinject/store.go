package faultinject

import (
	"fmt"
	"time"

	"repro/internal/blockdev"
)

// BlockStore is the backing-store shape this package wraps. It is
// structurally identical to lapcache.BackingStore, declared here so
// the dependency points outward (lapcache need not know faults exist).
type BlockStore interface {
	ReadBlock(b blockdev.BlockID, buf []byte) error
	WriteBlock(b blockdev.BlockID, data []byte) error
}

// Store is a BlockStore with injection at store.read / store.write.
// Keys are (node, block ID) — a selected block is a bad sector on that
// node's disk that fails (or stalls) every access until the rule's
// budget heals it. The node is part of the key, not just the label:
// each node's disk makes its own deterministic selection over every
// block, so a site names one disk, whichever node the ring makes a
// block's owner (a shared key would hand the first node to arrive the
// budget, making the faulted-site set timing-dependent).
type Store struct {
	inner BlockStore
	in    *Injector
	node  string
}

// WrapStore wraps s with this injector's store rules, labeling faults
// with node (the owning node's stable name, e.g. "store@n1").
func (in *Injector) WrapStore(s BlockStore, node string) *Store {
	return &Store{inner: s, in: in, node: node}
}

// key places block b on this node's disk in the keyspace.
func (s *Store) key(b blockdev.BlockID) uint64 {
	return StoreKey(s.node, b)
}

// ReadBlock implements BlockStore.
func (s *Store) ReadBlock(b blockdev.BlockID, buf []byte) error {
	f, ok := s.in.eval(SiteStoreRead, s.key(b),
		fmt.Sprintf("%s f%d:%d", s.node, b.File, b.Block))
	if !ok {
		return s.inner.ReadBlock(b, buf)
	}
	if d := f.stall(); d > 0 {
		time.Sleep(d)
		if f.Kind == KindDelay {
			return s.inner.ReadBlock(b, buf) // latency spike, then success
		}
	}
	if f.Kind == KindPartial {
		// The medium returned a prefix; the tail never arrived. The
		// prefix is real data (so a buggy caller that ignores the error
		// would be caught by the oracle), the error is mandatory.
		if err := s.inner.ReadBlock(b, buf); err != nil {
			return err
		}
		for i := len(buf) / 2; i < len(buf); i++ {
			buf[i] = 0
		}
		return fmt.Errorf("%w: short read %s f%d:%d (%d of %d bytes)",
			ErrInjected, s.node, b.File, b.Block, len(buf)/2, len(buf))
	}
	return fmt.Errorf("%w: read %s f%d:%d", ErrInjected, s.node, b.File, b.Block)
}

// WriteBlock implements BlockStore.
func (s *Store) WriteBlock(b blockdev.BlockID, data []byte) error {
	f, ok := s.in.eval(SiteStoreWrite, s.key(b),
		fmt.Sprintf("%s f%d:%d", s.node, b.File, b.Block))
	if !ok {
		return s.inner.WriteBlock(b, data)
	}
	if d := f.stall(); d > 0 {
		time.Sleep(d)
		if f.Kind == KindDelay {
			return s.inner.WriteBlock(b, data)
		}
	}
	return fmt.Errorf("%w: write %s f%d:%d", ErrInjected, s.node, b.File, b.Block)
}
