// Package blockdev defines the identity types shared by every layer of
// the simulated storage stack: files, blocks, nodes and disks, plus the
// arithmetic that maps byte-granularity user requests onto block spans,
// blocks onto disks (striping) and a file table's blocks onto dense
// slot numbers.
package blockdev

import (
	"fmt"
	"math/bits"
	"slices"
)

// FileID names a file in the simulated file system. IDs are dense
// small integers assigned by the workload generators.
type FileID int32

// NodeID names a machine node (client and/or server).
type NodeID int32

// DiskID names one physical disk.
type DiskID int32

// BlockNo is a block index within one file, starting at 0.
type BlockNo int32

// BlockID names one file block globally: the unit of caching,
// prefetching and disk transfer.
type BlockID struct {
	File  FileID
	Block BlockNo
}

// String renders the block as "file:block".
func (b BlockID) String() string { return fmt.Sprintf("%d:%d", b.File, b.Block) }

// Numbering numbers every block of a fixed file table once: the blocks
// of the lowest file ID take slots 0, 1, ..., the next file's follow,
// and so on, so slots run densely over [0, Len()) in (file, block)
// order. A table indexed by slot then stands in for a map keyed by
// BlockID, and sorting slots sorts blocks. Files are numbered the same
// way: a file's ordinal is its rank in ID order, dense over
// [0, Files()), so a table indexed by ordinal stands in for a map keyed
// by FileID. A simulated cell knows its whole file table before it
// starts (the trace's FileBlocks), and it is small: a few thousand
// blocks at the scales the experiments run.
type Numbering struct {
	// files holds every file's slots, by ordinal.
	files []FileSlots
	// index finds a file's ordinal: an open-addressed table and not a
	// slice indexed by ID, because a decoded trace need not number its
	// files densely. It is at most half full, and a negative entry is
	// empty.
	index []int32
	shift uint // 64 - log2(len(index)): a hash's top bits pick its home entry
	// owner is, by slot, the ordinal of the file the slot belongs to.
	owner []int32
}

// FileSlots is one numbered file, resolved: its ID, its ordinal, and
// its blocks' slots [First, First+Blocks). A caller that resolves a
// file once (Numbering.File) and keeps the result finds a block's slot
// with one range check and no lookup.
type FileSlots struct {
	ID      FileID
	Ordinal int32
	First   int32
	Blocks  int32
}

// Slot returns b's slot. A block of another file, or outside this
// one, is a bug, and panics.
func (f FileSlots) Slot(b BlockID) int32 {
	if b.File != f.ID || uint32(b.Block) >= uint32(f.Blocks) {
		panic(fmt.Sprintf("blockdev: block %v outside file %d's %d blocks", b, f.ID, f.Blocks))
	}
	return f.First + int32(b.Block)
}

// NewNumbering numbers the blocks of files, a map from every file to
// its length in blocks.
func NewNumbering(files map[FileID]BlockNo) *Numbering {
	ids, total := make([]FileID, 0, len(files)), 0
	for f, blocks := range files {
		ids = append(ids, f)
		total += int(blocks)
	}
	slices.Sort(ids)
	size := 1 << bits.Len(uint(2*len(ids)))
	n := &Numbering{
		files: make([]FileSlots, len(ids)),
		index: make([]int32, size),
		shift: 64 - uint(bits.TrailingZeros(uint(size))),
		owner: make([]int32, 0, total),
	}
	for i := range n.index {
		n.index[i] = -1
	}
	mask := uint64(size - 1)
	for o, f := range ids {
		s := fileHash(f) >> n.shift
		for n.index[s] >= 0 {
			s = (s + 1) & mask
		}
		n.index[s] = int32(o)
		n.files[o] = FileSlots{ID: f, Ordinal: int32(o), First: int32(len(n.owner)), Blocks: int32(files[f])}
		for range files[f] {
			n.owner = append(n.owner, int32(o))
		}
	}
	return n
}

func fileHash(f FileID) uint64 { return uint64(uint32(f)) * 0x9e3779b97f4a7c15 }

// find returns f's entry, or nil when f is not numbered.
func (n *Numbering) find(f FileID) *FileSlots {
	mask := uint64(len(n.index) - 1)
	for s := fileHash(f) >> n.shift; ; s = (s + 1) & mask {
		o := n.index[s]
		if o < 0 {
			return nil
		}
		if e := &n.files[o]; e.ID == f {
			return e
		}
	}
}

// Len returns the number of slots: the blocks of every file together.
func (n *Numbering) Len() int { return len(n.owner) }

// Files returns the number of files, zero-length ones included.
func (n *Numbering) Files() int { return len(n.files) }

// File resolves file f, and its Slot then finds a block's slot: this
// lookup is the one place a FileID becomes a slot. A file outside the
// table is a bug, and panics.
func (n *Numbering) File(f FileID) FileSlots {
	fs := n.find(f)
	if fs == nil {
		panic(fmt.Sprintf("blockdev: file %d outside the numbered files", f))
	}
	return *fs
}

// Ordinal returns the ordinal of the file slot belongs to.
func (n *Numbering) Ordinal(slot int32) int32 { return n.owner[slot] }

// Block returns the block in slot.
func (n *Numbering) Block(slot int32) BlockID {
	fs := &n.files[n.owner[slot]]
	return BlockID{fs.ID, BlockNo(slot - fs.First)}
}

// Span is a contiguous range of blocks [Start, Start+Count) of one
// file: the block-level image of a user read or write request.
type Span struct {
	File  FileID
	Start BlockNo
	Count int32
}

// Block returns the span's i-th block, 0 <= i < Count.
func (s Span) Block(i int32) BlockID { return BlockID{s.File, s.Start + BlockNo(i)} }

// End returns the first block index after the span.
func (s Span) End() BlockNo { return s.Start + BlockNo(s.Count) }

// String renders the span as "file:[start,end)".
func (s Span) String() string {
	return fmt.Sprintf("%d:[%d,%d)", s.File, s.Start, s.End())
}

// ByteRangeToSpan converts a byte-granularity request (offset, size in
// bytes) on file f into the covering block span, given the file-system
// block size. The paper counts a request touching two blocks as a
// two-block request even if it reads only 2 bytes (§2.2), which is
// exactly the ceiling arithmetic here. Zero-size requests map to a
// one-block span (metadata touch); negative arguments panic.
func ByteRangeToSpan(f FileID, offset, size int64, blockSize int64) Span {
	if offset < 0 || size < 0 || blockSize <= 0 {
		panic(fmt.Sprintf("blockdev: invalid byte range off=%d size=%d bs=%d", offset, size, blockSize))
	}
	first := offset / blockSize
	if size == 0 {
		return Span{File: f, Start: BlockNo(first), Count: 1}
	}
	last := (offset + size - 1) / blockSize
	return Span{File: f, Start: BlockNo(first), Count: int32(last - first + 1)}
}

// Striper maps blocks to disks. Both simulated file systems stripe
// file data round-robin across all disks, offset by a per-file
// rotation so that different files start on different disks (standard
// practice in parallel file systems, and what makes "prefetch from
// many files in parallel" use many disks, §3.2).
type Striper struct {
	disks int32
}

// NewStriper returns a striper over nDisks disks. It panics if
// nDisks <= 0.
func NewStriper(nDisks int) *Striper {
	if nDisks <= 0 {
		panic("blockdev: striper needs at least one disk")
	}
	return &Striper{disks: int32(nDisks)}
}

// DiskFor returns the disk holding block b.
func (s *Striper) DiskFor(b BlockID) DiskID {
	// Rotate by a hash of the file ID so file starts spread out.
	rot := int32(uint32(b.File) * 2654435761 % uint32(s.disks))
	return DiskID((int32(b.Block) + rot) % s.disks)
}
