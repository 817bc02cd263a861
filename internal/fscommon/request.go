package fscommon

import (
	"repro/internal/blockdev"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Protocol is what makes a Base one file system or the other: where a
// user request goes, and what each of its events does. The Runner
// hands it the trace's requests; the records below carry a request's
// state from event to event.
type Protocol interface {
	// Read serves a user read of span for a process on client; done
	// fires when every block has reached the client.
	Read(client blockdev.NodeID, span blockdev.Span, done func(at sim.Time))
	// Write serves a user write of span from client; done fires when
	// the data is absorbed by the cache.
	Write(client blockdev.NodeID, span blockdev.Span, done func(at sim.Time))
	// Close tells the file system the client is done with the file
	// for now; its prefetch chain stops until the next request.
	Close(client blockdev.NodeID, file blockdev.FileID, done func(at sim.Time))
	// Arrive continues request r once the message, or the local delay,
	// it was sent off with (Request.Arrived) has ended.
	Arrive(r *Request, e *sim.Engine, at sim.Time)
	// Advance continues miss m once the message or disk read it was
	// waiting on (Miss.Step) has ended.
	Advance(m *Miss, e *sim.Engine, at sim.Time)
}

// Serve names the file system the Base is: the Runner's requests go to
// it and the Base's records carry them. PAFS and xFS call it once, on
// construction.
func (b *Base) Serve(p Protocol) { b.proto = p }

// Request is one user request in flight. Its callbacks are bound once,
// when the record is first made, and the record is reused after the
// request finishes, so that a request's trip through the machine
// allocates nothing: hand the callbacks to the network, the disks and
// DemandFetch as they are.
type Request struct {
	Kind   workload.OpKind
	Client blockdev.NodeID
	Span   blockdev.Span // of a close, only the file

	// Arrived hands the request to Protocol.Arrive.
	Arrived func(e *sim.Engine, at sim.Time)
	// BlockDone reports that one of the Await-ed blocks has been
	// served, at the time given. The request finishes with the last of
	// them, at the latest time any reported, since a request is served
	// when its last block is.
	BlockDone func(e *sim.Engine, at sim.Time)

	base    *Base
	waiting int
	last    sim.Time
	done    func(at sim.Time)
}

// NewRequest returns the record of a user request whose completion is
// done.
func (b *Base) NewRequest(kind workload.OpKind, client blockdev.NodeID, span blockdev.Span, done func(at sim.Time)) *Request {
	var r *Request
	if n := len(b.idleRequests); n > 0 {
		r, b.idleRequests = b.idleRequests[n-1], b.idleRequests[:n-1]
	} else {
		r = &Request{base: b}
		r.Arrived = func(e *sim.Engine, at sim.Time) { b.proto.Arrive(r, e, at) }
		r.BlockDone = r.blockDone
	}
	r.Kind, r.Client, r.Span, r.done = kind, client, span, done
	r.waiting, r.last = int(span.Count), 0
	return r
}

func (r *Request) blockDone(_ *sim.Engine, at sim.Time) {
	r.last = max(r.last, at)
	r.waiting--
	if r.waiting == 0 {
		r.Finish(r.last)
	}
}

// Finish completes the request at the given time and frees its record.
func (r *Request) Finish(at sim.Time) {
	done := r.done
	r.done = nil
	r.base.idleRequests = append(r.base.idleRequests, r)
	done(at)
}

// Miss is one block of a request that was not where the request looked
// first and has further to go: to the disk, to another node. Like a
// Request it is a recycled record with its callback bound once.
type Miss struct {
	Req   *Request
	Block blockdev.BlockID
	// Stage is the file system's note of what the miss waits on.
	Stage int
	// Step hands the miss to Protocol.Advance.
	Step func(e *sim.Engine, at sim.Time)

	base *Base
}

// NewMiss returns the record of block blk of request r, at stage 0.
func (b *Base) NewMiss(r *Request, blk blockdev.BlockID) *Miss {
	var m *Miss
	if n := len(b.idleMisses); n > 0 {
		m, b.idleMisses = b.idleMisses[n-1], b.idleMisses[:n-1]
	} else {
		m = &Miss{base: b}
		m.Step = func(e *sim.Engine, at sim.Time) { b.proto.Advance(m, e, at) }
	}
	m.Req, m.Block, m.Stage = r, blk, 0
	return m
}

// Release frees the record once the block's last step has been taken.
func (m *Miss) Release() {
	m.Req = nil
	m.base.idleMisses = append(m.base.idleMisses, m)
}
