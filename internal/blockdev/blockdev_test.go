package blockdev

import (
	"fmt"
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

func TestBlockIDString(t *testing.T) {
	b := BlockID{4, 9}
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
		if got := n.File(b.File).Slot(b); got != int32(slot) {
			t.Errorf("Slot(%v) = %d, want %d", b, got, slot)
		}
	}
	if fs := n.File(9); fs.Blocks != 2 || fs.First != 3 {
		t.Errorf("File(9) = %+v; want 2 blocks from slot 3", fs)
	}
	mustPanicOn(t, "File(8)", func() { n.File(8) })
	for _, b := range []BlockID{{3, 3}, {3, -1}, {7, 0}, {8, 0}} {
		mustPanic(t, b, n)
	}
}

// refNumbering is the map the open-addressed table replaced: each
// file's first slot and length, slots dense in (file, block) order.
type refNumbering map[FileID]struct{ first, blocks int32 }

func newRefNumbering(files map[FileID]BlockNo) refNumbering {
	ids := make([]FileID, 0, len(files))
	for f := range files {
		ids = append(ids, f)
	}
	slices.Sort(ids)
	ref, next := make(refNumbering, len(ids)), int32(0)
	for _, f := range ids {
		ref[f] = struct{ first, blocks int32 }{next, int32(files[f])}
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
				if got := n.File(f); got.Blocks != fs.blocks || got.First != fs.first {
					t.Errorf("File(%d) = %+v; want %d blocks from slot %d", f, got, fs.blocks, fs.first)
				}
				for b := int32(0); b < fs.blocks; b++ {
					id := BlockID{f, BlockNo(b)}
					if got := n.File(f).Slot(id); got != fs.first+b {
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
				for s, o := range n.index {
					if o >= 0 && uint64(s) != fileHash(n.files[o].ID)>>n.shift {
						displaced++
					}
				}
				if displaced == 0 {
					t.Error("no file sits past its home entry")
				}
			}
			for _, f := range tc.absent {
				mustPanicOn(t, fmt.Sprintf("File(%d)", f), func() { n.File(f) })
				mustPanic(t, BlockID{f, 0}, n)
			}
		})
	}
}

func mustPanic(t *testing.T, b BlockID, n *Numbering) {
	t.Helper()
	mustPanicOn(t, fmt.Sprintf("Slot(%v)", b), func() { n.File(b.File).Slot(b) })
}

func mustPanicOn(t *testing.T, call string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", call)
		}
	}()
	f()
}

// TestNumberingOrdinals: files get ordinals by rank in ID order however
// sparse their IDs, a resolved file finds each block at its first slot
// plus the block number, and Block and Ordinal map every slot back.
// Every resolving call panics on a file the table does not have or a
// block past its file's end.
func TestNumberingOrdinals(t *testing.T) {
	ids := []FileID{3, 7, 1 << 20, 1 << 30}
	files := map[FileID]BlockNo{1 << 30: 2, 7: 3, 3: 1, 1 << 20: 4}
	n := NewNumbering(files)
	if n.Files() != len(ids) {
		t.Fatalf("Files = %d, want %d", n.Files(), len(ids))
	}
	next := int32(0)
	for o, f := range ids {
		fs := n.File(f)
		if fs != (FileSlots{ID: f, Ordinal: int32(o), First: next, Blocks: int32(files[f])}) {
			t.Errorf("File(%d) = %+v, want ordinal %d, %d blocks from slot %d", f, fs, o, files[f], next)
		}
		next += int32(files[f])
		for b := BlockNo(0); b < files[f]; b++ {
			id := BlockID{f, b}
			slot := fs.Slot(id)
			if slot != fs.First+int32(b) {
				t.Errorf("Slot(%v) = %d, want %d", id, slot, fs.First+int32(b))
			}
			if n.Block(slot) != id || n.Ordinal(slot) != int32(o) {
				t.Errorf("slot %d maps back to %v of ordinal %d, want %v of %d", slot, n.Block(slot), n.Ordinal(slot), id, o)
			}
		}
		mustPanic(t, BlockID{f, files[f]}, n)
		mustPanic(t, BlockID{f, -1}, n)
	}
	if n.Len() != int(next) {
		t.Errorf("Len = %d, want %d", n.Len(), next)
	}
	mustPanicOn(t, "file 3's Slot of a block of file 7", func() { n.File(3).Slot(BlockID{7, 0}) })
	for _, f := range []FileID{0, 4, 1<<20 + 1, -3} {
		mustPanicOn(t, fmt.Sprintf("File(%d)", f), func() { n.File(f) })
	}
	mustPanicOn(t, "Block past the last slot", func() { n.Block(int32(n.Len())) })
	mustPanicOn(t, "Ordinal past the last slot", func() { n.Ordinal(int32(n.Len())) })
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
