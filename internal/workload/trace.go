// Package workload models the two trace workloads of the paper's
// evaluation — CHARISMA (parallel scientific I/O on a parallel
// machine) and Sprite (office/engineering activity on a network of
// workstations) — as synthetic, seeded generators that reproduce the
// published characteristics of the original traces, which were never
// released at block granularity (see DESIGN.md, substitutions).
//
// A trace is a set of per-process closed loops: each process thinks
// for a while, issues one file request, waits for it to complete, and
// moves on. The closed loop matters: when prefetching speeds up reads,
// the application finishes sooner, dirty blocks live in the cache for
// less time, and the periodic write-back daemon writes them fewer
// times — the effect behind the paper's Table 2.
package workload

import (
	"fmt"
	"sync"

	"repro/internal/blockdev"
	"repro/internal/sim"
)

// OpKind is the kind of one traced request.
type OpKind int

// Request kinds.
const (
	OpRead OpKind = iota
	OpWrite
	// OpClose tells the file system this process is done with the
	// file for now; prefetch chains for it stop until the next
	// request. Offset and Size are ignored.
	OpClose
)

// String names the kind.
func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	default:
		return "close"
	}
}

// Step is one closed-loop step of a process: think, then issue.
type Step struct {
	// Think is the CPU time consumed before issuing the request.
	Think sim.Duration
	// Kind is read or write.
	Kind OpKind
	// File is the target file.
	File blockdev.FileID
	// Offset and Size are in bytes; the file system converts them to
	// block spans, honouring the paper's two-bytes-two-blocks rule.
	Offset int64
	Size   int64
}

// Process is one traced process pinned to a node.
type Process struct {
	Node  blockdev.NodeID
	Steps []Step
}

// Trace is a complete workload. FileBlocks must not change once the
// trace is first simulated: every run of the trace shares the one
// Numbering built from it then. A request on a file or block outside
// that numbering panics when the file system resolves it, so a stale
// numbering fails loudly.
type Trace struct {
	Name string
	// FileBlocks maps every file to its length in blocks; the file
	// systems need it to clip prefetching at end of file.
	FileBlocks map[blockdev.FileID]blockdev.BlockNo
	Procs      []Process

	numOnce sync.Once
	num     *blockdev.Numbering
}

// Numbering returns the numbering of FileBlocks' blocks, built on the
// first call and shared read-only by every later one, from any
// goroutine: the cells of a sweep run on one trace number it once.
func (t *Trace) Numbering() *blockdev.Numbering {
	t.numOnce.Do(func() { t.num = blockdev.NewNumbering(t.FileBlocks) })
	return t.num
}

// TotalSteps returns the number of requests across all processes.
func (t *Trace) TotalSteps() int {
	n := 0
	for i := range t.Procs {
		n += len(t.Procs[i].Steps)
	}
	return n
}

// DistinctBlocks returns the total data footprint in blocks.
func (t *Trace) DistinctBlocks() int64 {
	var n int64
	for _, b := range t.FileBlocks {
		n += int64(b)
	}
	return n
}

// Validate checks internal consistency: every step's file exists, the
// byte range lies inside the file, nodes are within the machine, and
// sizes are positive.
func (t *Trace) Validate(nodes int, blockSize int64) error {
	if len(t.Procs) == 0 {
		return fmt.Errorf("workload %s: no processes", t.Name)
	}
	for pi := range t.Procs {
		p := &t.Procs[pi]
		if int(p.Node) < 0 || int(p.Node) >= nodes {
			return fmt.Errorf("workload %s: process %d on node %d outside machine of %d",
				t.Name, pi, p.Node, nodes)
		}
		for si, s := range p.Steps {
			fb, ok := t.FileBlocks[s.File]
			if !ok {
				return fmt.Errorf("workload %s: process %d step %d uses unknown file %d",
					t.Name, pi, si, s.File)
			}
			if s.Think < 0 {
				return fmt.Errorf("workload %s: process %d step %d negative think", t.Name, pi, si)
			}
			if s.Kind == OpClose {
				continue // offset and size unused
			}
			if s.Size <= 0 || s.Offset < 0 {
				return fmt.Errorf("workload %s: process %d step %d has range (%d,%d)",
					t.Name, pi, si, s.Offset, s.Size)
			}
			if s.Offset+s.Size > int64(fb)*blockSize {
				return fmt.Errorf("workload %s: process %d step %d reads past EOF of file %d",
					t.Name, pi, si, s.File)
			}
		}
	}
	return nil
}
