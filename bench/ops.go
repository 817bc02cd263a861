package main

import (
	"math"
	"sort"
)

// Operation kinds a client issues.
const (
	opRead uint8 = iota
	opWrite
	opClose
)

// op is one client operation on one block. file indexes the
// workload's file table (liveEnv.fileID), so that the same stream can
// be replayed against differently placed files.
type op struct {
	file  int32
	block int32
	kind  uint8
	// last marks the end of a cycle: a stretch of operations whose mix
	// is fixed by construction. Rounds end only after a last op, so that
	// every round of every seed measures the same mix.
	last bool
}

// opSource is one client goroutine's deterministic operation stream.
type opSource interface{ next() op }

// take draws the first n operations of a source.
func take(src opSource, n int) []op {
	out := make([]op, n)
	for i := range out {
		out[i] = src.next()
	}
	return out
}

// scanSource is a hit_fanin reader: it scans its files block by block,
// hopping to the next file at the end of each.
type scanSource struct {
	files  []int32
	blocks int32
	cur    int
	block  int32
}

func (s *scanSource) next() op {
	o := op{file: s.files[s.cur], block: s.block, kind: opRead, last: true}
	if s.block++; s.block == s.blocks {
		s.block = 0
		s.cur = (s.cur + 1) % len(s.files)
	}
	return o
}

// newScanSources deals nFiles files to nReaders readers (seeded) and
// starts each reader at a seeded block of its first file.
func newScanSources(seed uint64, nReaders, nFiles int, blocks int32) []*scanSource {
	r := newRNG(seed, 1)
	deal := r.perm(nFiles)
	per := nFiles / nReaders
	out := make([]*scanSource, nReaders)
	for g := range out {
		s := &scanSource{blocks: blocks, block: int32(r.intn(int(blocks)))}
		for _, f := range deal[g*per : (g+1)*per] {
			s.files = append(s.files, int32(f))
		}
		out[g] = s
	}
	return out
}

// Segment shapes of seq_prefetch: per cycle of ten segments six
// sequential runs, two strided runs (stride 2-8) and two bursts of
// uniform random reads, each 16-63 reads long. Lengths are drawn in
// complementary pairs, so every cycle holds exactly cycleReads reads
// of which exactly a fifth are random: the seed moves where and in
// which order the segments fall, not how many misses a round is made
// of. About a fifth of the reads are slow (nearly every random read,
// and the first read or two of every run), which puts the 90th
// percentile in the middle of the miss mode and makes the mean a matter
// of how many reads miss. (ISSUE 13 asked for sequential runs of 64-255
// and strided runs of 32-127; that leaves 5-7 % of the reads slow, the
// 90th percentile on the last steep stretch of the hit mode, and both
// it and the mean at the mercy of wake-up latency: 80-180 us and
// 155-245 us from run to run.)
const (
	segLo, segHi       = 16, 63
	strideLo, strideHi = 2, 8
	cycleReads         = 5 * (segLo + segHi)
)

type segment struct {
	shape  uint8 // 0 sequential, 1 strided, 2 random
	length int
}

// segSource is a seq_prefetch client.
type segSource struct {
	r      *rng
	files  []int32 // the client's own files
	blocks int32
	buf    []op
	pos    int
}

func newSegSource(seed uint64, client int, files []int32, blocks int32) *segSource {
	return &segSource{r: newRNG(seed, 2, uint64(client)), files: files, blocks: blocks}
}

func (s *segSource) next() op {
	if s.pos == len(s.buf) {
		s.fillCycle()
	}
	o := s.buf[s.pos]
	s.pos++
	return o
}

func (s *segSource) fillCycle() {
	r := s.r
	var segs []segment
	for _, shape := range []uint8{0, 0, 0, 1, 2} {
		a := r.between(segLo, segHi)
		segs = append(segs, segment{shape, a}, segment{shape, segLo + segHi - a})
	}
	order := r.perm(len(segs))

	s.buf, s.pos = s.buf[:0], 0
	for _, i := range order {
		sg := segs[i]
		f := s.files[r.intn(len(s.files))]
		switch sg.shape {
		case 0:
			start := r.intn(int(s.blocks) - sg.length + 1)
			for k := 0; k < sg.length; k++ {
				s.buf = append(s.buf, op{file: f, block: int32(start + k), kind: opRead})
			}
		case 1:
			stride := r.between(strideLo, strideHi)
			start := r.intn(int(s.blocks) - stride*(sg.length-1))
			for k := 0; k < sg.length; k++ {
				s.buf = append(s.buf, op{file: f, block: int32(start + k*stride), kind: opRead})
			}
		case 2:
			for k := 0; k < sg.length; k++ {
				s.buf = append(s.buf, op{file: f, block: int32(r.intn(int(s.blocks))), kind: opRead})
			}
		}
		s.buf = append(s.buf, op{file: f, kind: opClose})
	}
	s.buf[len(s.buf)-1].last = true
}

// zipfCDF returns the cumulative Zipf(s) distribution over n ranks.
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	var sum float64
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return cdf
}

// zipfSource is a coop_mixed client: it picks a file by popularity
// rank, reads or (writeShare of the time) writes the block under its
// own cursor in that file, and advances the cursor.
type zipfSource struct {
	r          *rng
	files      []int32 // by popularity rank
	cdf        []float64
	cursor     []int32
	blocks     int32
	writeShare float64
}

func newZipfSource(seed uint64, client int, files []int32, cdf []float64, blocks int32, writeShare float64) *zipfSource {
	s := &zipfSource{r: newRNG(seed, 3, uint64(client)), files: files, cdf: cdf, blocks: blocks,
		cursor: make([]int32, len(cdf)), writeShare: writeShare}
	for i := range s.cursor {
		s.cursor[i] = int32(s.r.intn(int(blocks)))
	}
	return s
}

func (s *zipfSource) next() op {
	rank := sort.SearchFloat64s(s.cdf, s.r.float())
	if rank == len(s.cdf) {
		rank--
	}
	o := op{file: s.files[rank], block: s.cursor[rank], kind: opRead, last: true}
	if s.r.float() < s.writeShare {
		o.kind = opWrite
	}
	s.cursor[rank] = (s.cursor[rank] + 1) % s.blocks
	return o
}
