package lapcache

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/blockdev"
)

// TestMemStoreOverwrite: an overwrite copies into the stored block, so
// it must read back the new bytes, allocate nothing, and never let a
// concurrent reader see half of one write and half of another (run it
// under -race too: the reader's copy must stay under the lock).
func TestMemStoreOverwrite(t *testing.T) {
	const bs = 512
	id := blockdev.BlockID{File: 3, Block: 7}
	s := NewMemStore(bs, 0)
	// fill returns a block whose every byte is v.
	fill := func(v byte) []byte { return bytes.Repeat([]byte{v}, bs) }
	buf := make([]byte, bs)

	for _, v := range []byte{1, 2} {
		if err := s.WriteBlock(id, fill(v)); err != nil {
			t.Fatal(err)
		}
		if err := s.ReadBlock(id, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, fill(v)) {
			t.Fatalf("after writing %d the block reads back %v...", v, buf[:8])
		}
	}
	// A short write zeroes the tail, as a fresh block would.
	if err := s.WriteBlock(id, fill(9)[:bs/2]); err != nil {
		t.Fatal(err)
	}
	if err := s.ReadBlock(id, buf); err != nil {
		t.Fatal(err)
	}
	if want := append(fill(9)[:bs/2], make([]byte, bs/2)...); !bytes.Equal(buf, want) {
		t.Fatal("a short overwrite left the old tail in place")
	}

	if !raceEnabled {
		data := fill(4)
		if a := testing.AllocsPerRun(100, func() { s.WriteBlock(id, data) }); a != 0 {
			t.Errorf("overwrite allocates %.1f times, want 0", a)
		}
	}

	a, b := fill(0xaa), fill(0x55)
	s.WriteBlock(id, a)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			src := a
			if i%2 == 1 {
				src = b
			}
			s.WriteBlock(id, src)
		}
	}()
	for i := 0; i < 2000; i++ {
		if err := s.ReadBlock(id, buf); err != nil {
			t.Error(err)
			break
		}
		if !bytes.Equal(buf, a) && !bytes.Equal(buf, b) {
			t.Errorf("read %d saw a torn block: first byte %#x, last %#x", i, buf[0], buf[bs-1])
			break
		}
	}
	close(stop)
	wg.Wait()
}
