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
// A site is a block alone (StoreSite) — a selected block is a bad
// sector that fails (or stalls) every access until the rule's budget
// heals it. The node is not part of the site: only a block's owner
// touches its store, so a per-node key would add sites that can never
// fire, and one whose owner (the ring over ephemeral addresses) no
// enumeration can name before a fleet boots.
type Store struct {
	inner BlockStore
	in    *Injector
}

// WrapStore wraps s with this injector's store rules.
func (in *Injector) WrapStore(s BlockStore) *Store {
	return &Store{inner: s, in: in}
}

// ReadBlock implements BlockStore.
func (s *Store) ReadBlock(b blockdev.BlockID, buf []byte) error {
	key, label := StoreSite(b)
	f, ok := s.in.eval(SiteStoreRead, key, label)
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
		return fmt.Errorf("%w: short read %s (%d of %d bytes)",
			ErrInjected, label, len(buf)/2, len(buf))
	}
	return fmt.Errorf("%w: read %s", ErrInjected, label)
}

// WriteBlock implements BlockStore.
func (s *Store) WriteBlock(b blockdev.BlockID, data []byte) error {
	key, label := StoreSite(b)
	f, ok := s.in.eval(SiteStoreWrite, key, label)
	if !ok {
		return s.inner.WriteBlock(b, data)
	}
	if d := f.stall(); d > 0 {
		time.Sleep(d)
		if f.Kind == KindDelay {
			return s.inner.WriteBlock(b, data)
		}
	}
	return fmt.Errorf("%w: write %s", ErrInjected, label)
}
