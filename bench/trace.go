package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// tracer collects spans in memory and writes them as JSONL when the
// run ends. Spans are recorded by the benchmark's own files, around
// its calls into each layer's public API; nothing under internal/ is
// instrumented. Every method is safe on a nil tracer and does nothing
// there, which is how an untraced run runs the same code.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []spanRec
}

// spanRec is one span: what was called, when, for how long, under
// which parent span (-1 for none) and for which operation of the
// stream (spans of one operation share op).
type spanRec struct {
	Name    string `json:"name"`
	ID      int32  `json:"id"`
	Parent  int32  `json:"parent"`
	Op      int64  `json:"op"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a span and returns its ID.
func (t *tracer) add(name string, start time.Time, d time.Duration, parent int32) int32 {
	return t.addOp(name, start, d, parent, -1)
}

func (t *tracer) addOp(name string, start time.Time, d time.Duration, parent int32, op int64) int32 {
	if t == nil {
		return -1
	}
	s := start.Sub(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, spanRec{Name: name, ID: id, Parent: parent, Op: op, StartNs: s, EndNs: s + d.Nanoseconds()})
	return id
}

// setDuration closes a span that was added before its end was known.
func (t *tracer) setDuration(id int32, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[id].EndNs = t.spans[id].StartNs + d.Nanoseconds()
	t.mu.Unlock()
}

// Span names of a reader's timed loop.
var (
	spanOp    = [...]uint8{opRead: 0, opWrite: 1}
	spanNames = [...]string{"lapclient.Conn.ReadInto", "lapclient.Conn.Write"}
)

// ringSpans is how many of a reader's latest spans a traced round
// keeps. The round records every call (that cost is what
// bench.tracing_overhead_pct reports); the file keeps the tail.
const ringSpans = 1024

// spanRing is a reader's span buffer: preallocated, written without a
// lock by its one goroutine, overwriting the oldest entry when full.
type spanRing struct {
	t0  time.Time
	buf []ringSpan
	n   int64
}

type ringSpan struct {
	start, dur, op int64
	name           uint8
}

func (t *tracer) ring() *spanRing {
	return &spanRing{t0: t.t0, buf: make([]ringSpan, ringSpans)}
}

func (r *spanRing) record(name uint8, start time.Time, d time.Duration, op int64) {
	r.buf[r.n%ringSpans] = ringSpan{start: start.Sub(r.t0).Nanoseconds(), dur: d.Nanoseconds(), op: op, name: name}
	r.n++
}

// keep moves a ring's spans under a new root span of the tracer.
func (t *tracer) keep(r *spanRing) {
	if t == nil || r == nil || r.n == 0 {
		return
	}
	kept := r.buf[:min(r.n, ringSpans)]
	lo, hi := kept[0].start, kept[0].start+kept[0].dur
	for _, s := range kept {
		lo, hi = min(lo, s.start), max(hi, s.start+s.dur)
	}
	root := t.add("bench.reader", t.t0.Add(time.Duration(lo)), time.Duration(hi-lo), -1)
	for _, s := range kept {
		t.addOp(spanNames[s.name], t.t0.Add(time.Duration(s.start)), time.Duration(s.dur), root, s.op)
	}
}

// write stores the spans as one JSON object per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close() //nolint:errcheck // already failing
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close() //nolint:errcheck // already failing
		return err
	}
	return f.Close()
}
