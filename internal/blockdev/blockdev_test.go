package blockdev

import (
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"
)

func TestByteRangeToSpanBasics(t *testing.T) {
	const bs = 8192
	cases := []struct {
		name         string
		offset, size int64
		wantStart    BlockNo
		wantCount    int32
	}{
		{"one block exact", 0, bs, 0, 1},
		{"one byte", 0, 1, 0, 1},
		{"two bytes across boundary", bs - 1, 2, 0, 2}, // the paper's §2.2 example
		{"second block", bs, bs, 1, 1},
		{"three blocks", bs / 2, 2 * bs, 0, 3},
		{"zero size", 3 * bs, 0, 3, 1},
		{"aligned multi", 2 * bs, 4 * bs, 2, 4},
	}
	for _, c := range cases {
		got := ByteRangeToSpan(7, c.offset, c.size, bs)
		if got.File != 7 || got.Start != c.wantStart || got.Count != c.wantCount {
			t.Errorf("%s: got %v, want 7:[%d,%d)", c.name, got, c.wantStart, int32(c.wantStart)+c.wantCount)
		}
	}
}

func TestByteRangeToSpanPanics(t *testing.T) {
	for _, c := range []struct{ off, size, bs int64 }{
		{-1, 1, 8192}, {0, -1, 8192}, {0, 1, 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ByteRangeToSpan(%d,%d,%d) did not panic", c.off, c.size, c.bs)
				}
			}()
			ByteRangeToSpan(0, c.off, c.size, c.bs)
		}()
	}
}

func TestSpanBlocks(t *testing.T) {
	s := Span{File: 3, Start: 10, Count: 3}
	want := []BlockID{{3, 10}, {3, 11}, {3, 12}}
	if int(s.Count) != len(want) {
		t.Fatalf("got %d blocks", s.Count)
	}
	for i := range want {
		if got := s.Block(int32(i)); got != want[i] {
			t.Errorf("block %d = %v, want %v", i, got, want[i])
		}
	}
	if s.End() != 13 {
		t.Errorf("End = %d", s.End())
	}
}

func TestBlockIDNextAndString(t *testing.T) {
	b := BlockID{4, 9}
	if b.Next() != (BlockID{4, 10}) {
		t.Error("Next wrong")
	}
	if b.String() != "4:9" {
		t.Errorf("String = %q", b.String())
	}
	s := Span{File: 1, Start: 2, Count: 3}
	if s.String() != "1:[2,5)" {
		t.Errorf("Span.String = %q", s.String())
	}
}

func TestNumberingIsDenseInBlockOrder(t *testing.T) {
	n := NewNumbering(map[FileID]BlockNo{9: 2, 3: 3, 40: 1, 7: 0})
	if n.Len() != 6 {
		t.Fatalf("Len = %d, want 6", n.Len())
	}
	want := []BlockID{{3, 0}, {3, 1}, {3, 2}, {9, 0}, {9, 1}, {40, 0}}
	for slot, b := range want {
		if got := n.Slot(b); got != int32(slot) {
			t.Errorf("Slot(%v) = %d, want %d", b, got, slot)
		}
	}
	if blocks, ok := n.Blocks(9); blocks != 2 || !ok {
		t.Errorf("Blocks(9) = %d, %v; want 2, true", blocks, ok)
	}
	if _, ok := n.Blocks(8); ok {
		t.Error("Blocks(8) found a file the table does not have")
	}
	for _, b := range []BlockID{{3, 3}, {3, -1}, {7, 0}, {8, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Slot(%v) did not panic", b)
				}
			}()
			n.Slot(b)
		}()
	}
}

// refNumbering is the map the open-addressed table replaced: each
// file's first slot and length, slots dense in (file, block) order.
type refNumbering map[FileID]fileSlots

func newRefNumbering(files map[FileID]BlockNo) refNumbering {
	ids := make([]FileID, 0, len(files))
	for f := range files {
		ids = append(ids, f)
	}
	slices.Sort(ids)
	ref, next := make(refNumbering, len(ids)), int32(0)
	for _, f := range ids {
		ref[f] = fileSlots{file: f, first: next, blocks: int32(files[f])}
		next += int32(files[f])
	}
	return ref
}

// TestNumberingMatchesMap holds Numbering to the map reference on file
// tables a decoded trace may carry: sparse, negative and near-MaxInt32
// IDs, zero-length files, and IDs that collide in the table. Every
// numbered block gets the reference's slot, every file its length (a
// zero-length file is still numbered), and a block outside the table
// panics.
func TestNumberingMatchesMap(t *testing.T) {
	dense, random := make(map[FileID]BlockNo), make(map[FileID]BlockNo)
	for f := FileID(0); f < 300; f++ {
		dense[f] = BlockNo(f % 5)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for len(random) < 500 {
		random[FileID(rng.Int32()-rng.Int32())] = BlockNo(rng.IntN(4))
	}
	for _, tc := range []struct {
		name   string
		files  map[FileID]BlockNo
		absent []FileID
		probes bool // some file must sit past its home entry
	}{
		{"empty", map[FileID]BlockNo{}, []FileID{0, 1, -1}, false},
		{"zero-length only", map[FileID]BlockNo{5: 0}, []FileID{0, 4, 6}, false},
		{"dense", dense, []FileID{-1, 300, 1 << 20}, false},
		{"random", random, nil, true},
		{"sparse", map[FileID]BlockNo{0: 2, 1000: 3, 1 << 20: 1, 7_777_777: 4}, []FileID{1, 999, 1001}, false},
		{"negative", map[FileID]BlockNo{-1: 2, -2: 0, -1 << 31: 3, 0: 1}, []FileID{-3, 1, 1<<31 - 1}, false},
		{"near MaxInt32", map[FileID]BlockNo{1<<31 - 1: 2, 1<<31 - 2: 0, 1<<31 - 3: 1}, []FileID{1<<31 - 4, 0, -1 << 31}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n, ref := NewNumbering(tc.files), newRefNumbering(tc.files)
			total := 0
			for f, fs := range ref {
				total += int(fs.blocks)
				if blocks, ok := n.Blocks(f); !ok || int32(blocks) != fs.blocks {
					t.Errorf("Blocks(%d) = %d, %v; want %d, true", f, blocks, ok, fs.blocks)
				}
				for b := int32(0); b < fs.blocks; b++ {
					id := BlockID{f, BlockNo(b)}
					if got := n.Slot(id); got != fs.first+b {
						t.Errorf("Slot(%v) = %d, want %d", id, got, fs.first+b)
					}
				}
				mustPanic(t, BlockID{f, BlockNo(fs.blocks)}, n)
				mustPanic(t, BlockID{f, -1}, n)
			}
			if n.Len() != total {
				t.Errorf("Len = %d, want %d", n.Len(), total)
			}
			if tc.probes {
				displaced := 0
				for s, e := range n.files {
					if e.blocks >= 0 && uint64(s) != fileHash(e.file)>>n.shift {
						displaced++
					}
				}
				if displaced == 0 {
					t.Error("no file sits past its home entry")
				}
			}
			for _, f := range tc.absent {
				if blocks, ok := n.Blocks(f); ok || blocks != 0 {
					t.Errorf("Blocks(%d) = %d, %v for a file the table does not have", f, blocks, ok)
				}
				mustPanic(t, BlockID{f, 0}, n)
			}
		})
	}
}

func mustPanic(t *testing.T, b BlockID, n *Numbering) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("Slot(%v) did not panic", b)
		}
	}()
	n.Slot(b)
}

func TestStriperCoversAllDisks(t *testing.T) {
	st := NewStriper(16)
	seen := make(map[DiskID]bool)
	for blk := BlockNo(0); blk < 16; blk++ {
		seen[st.DiskFor(BlockID{File: 1, Block: blk})] = true
	}
	if len(seen) != 16 {
		t.Errorf("sequential blocks of one file hit %d/16 disks", len(seen))
	}
}

func TestStriperSequentialBlocksAlternate(t *testing.T) {
	st := NewStriper(4)
	d0 := st.DiskFor(BlockID{File: 2, Block: 0})
	d1 := st.DiskFor(BlockID{File: 2, Block: 1})
	if d0 == d1 {
		t.Error("adjacent blocks landed on the same disk")
	}
}

func TestStriperFilesRotate(t *testing.T) {
	st := NewStriper(8)
	starts := make(map[DiskID]bool)
	for f := FileID(0); f < 64; f++ {
		starts[st.DiskFor(BlockID{File: f, Block: 0})] = true
	}
	if len(starts) < 4 {
		t.Errorf("file starts concentrated on %d/8 disks", len(starts))
	}
}

func TestStriperPanicsOnZeroDisks(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewStriper(0) did not panic")
		}
	}()
	NewStriper(0)
}

// Property: every block maps to a valid disk, deterministically.
func TestStriperRangeProperty(t *testing.T) {
	st := NewStriper(16)
	f := func(file int32, blk int32) bool {
		if blk < 0 {
			blk = -blk
		}
		b := BlockID{FileID(file), BlockNo(blk % 1_000_000)}
		d := st.DiskFor(b)
		return d >= 0 && int(d) < 16 && d == st.DiskFor(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: ByteRangeToSpan covers exactly the bytes requested — the
// first byte lands in the first block and the last byte in the last.
func TestByteRangeCoverageProperty(t *testing.T) {
	f := func(off uint32, size uint32) bool {
		const bs = 8192
		o, sz := int64(off%(1<<24)), int64(size%(1<<20))+1
		s := ByteRangeToSpan(1, o, sz, bs)
		firstByteBlock := o / bs
		lastByteBlock := (o + sz - 1) / bs
		return int64(s.Start) == firstByteBlock && int64(s.End()-1) == lastByteBlock
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
