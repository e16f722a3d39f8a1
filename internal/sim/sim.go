// Package sim is a small deterministic discrete-event engine that models the
// CUDA execution semantics vDNN depends on: in-order streams, serial hardware
// engines (the SM array and the copy engines), cross-stream dependencies
// (CUDA events), and a host thread that issues work asynchronously and
// occasionally blocks on synchronization.
//
// Ops are scheduled analytically: an op starts when its engine is free AND
// all its dependencies (program order within its stream, plus explicit event
// dependencies, plus its issue time on the host) have completed. Because the
// host issues ops one at a time this assignment is exact, not approximate.
package sim

import (
	"fmt"
	"time"
)

// Time is simulated time in nanoseconds from the start of the run.
type Time int64

const (
	Microsecond Time = 1000
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Duration converts to a time.Duration for printing.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Seconds returns the time in seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Msec returns the time in milliseconds.
func (t Time) Msec() float64 { return float64(t) / float64(Millisecond) }

func (t Time) String() string { return t.Duration().String() }

// OpKind categorizes ops for metrics and tracing.
type OpKind int

const (
	OpKernel     OpKind = iota // compute kernel on the SM array
	OpCopyD2H                  // device-to-host DMA (offload)
	OpCopyH2D                  // host-to-device DMA (prefetch)
	OpHost                     // host-side work (e.g. pinned allocation)
	OpCopyP2P                  // peer-to-peer DMA (gradient all-reduce)
	OpCompress                 // codec pass in the D2H DMA path (cDMA engine)
	OpDecompress               // codec pass in the H2D DMA path (cDMA engine)
	OpCopyStage                // inter-stage pipeline transfer (activation or gradient)
)

func (k OpKind) String() string {
	switch k {
	case OpKernel:
		return "kernel"
	case OpCopyD2H:
		return "copyD2H"
	case OpCopyH2D:
		return "copyH2D"
	case OpHost:
		return "host"
	case OpCopyP2P:
		return "copyP2P"
	case OpCompress:
		return "compress"
	case OpDecompress:
		return "decompress"
	case OpCopyStage:
		return "copyStage"
	}
	return fmt.Sprintf("OpKind(%d)", int(k))
}

// Op is one unit of device (or host) work with a fixed duration.
type Op struct {
	ID    int
	Label string
	Kind  OpKind

	// Cost inputs, recorded for metrics.
	DurationT Time  // execution time once started
	Flops     int64 // useful arithmetic performed
	DRAMBytes int64 // device DRAM traffic generated
	BusBytes  int64 // PCIe/NVLink traffic generated

	// Schedule outputs.
	Start Time
	End   Time

	deps   []*Op
	depbuf [4]*Op // inline storage for deps: nearly every op has ≤4 (stream order + a few events)
}

// Deps returns the ops this op waited on (program order and events).
func (o *Op) Deps() []*Op { return o.deps }

// Engine is a serial hardware resource: at most one op executes at a time,
// in the order ops were issued to it.
type Engine struct {
	Name string
	free Time
	ops  []*Op
}

// Ops returns every op executed on the engine, in issue order.
func (e *Engine) Ops() []*Op { return e.ops }

// BusyTime returns the total time the engine spent executing ops.
func (e *Engine) BusyTime() Time {
	var b Time
	for _, o := range e.ops {
		b += o.DurationT
	}
	return b
}

// Stream models a CUDA stream: a FIFO of ops that may map to different
// hardware engines (e.g. a memory stream whose copies alternate between the
// D2H and H2D DMA engines) but always execute in issue order.
type Stream struct {
	Name string
	last *Op // last op issued to this stream, for program-order deps
}

// Last returns the most recently issued op on the stream (nil if none).
func (s *Stream) Last() *Op { return s.last }

// opChunk is the number of ops in each chunk of a timeline's op slab.
const opChunk = 64

// Timeline owns the simulated clock, the engines, and the issued ops.
type Timeline struct {
	host    Time // host thread's current time
	ops     []*Op
	engines []*Engine

	// slab is the chunk NewOp carves ops from. A chunk is never grown by
	// append — a full one is replaced — so its ops never move and the
	// pointers handed out (and each op's deps, which alias its depbuf) stay
	// valid for the timeline's lifetime.
	slab []Op

	// Host overheads, modeling driver costs. Zero values are allowed.
	LaunchOverhead Time // host time consumed issuing one async op
	SyncOverhead   Time // host time consumed by a blocking synchronization
}

// New creates a timeline with the given host-side overheads.
func New(launch, sync Time) *Timeline {
	return &Timeline{LaunchOverhead: launch, SyncOverhead: sync}
}

// NewEngine registers a serial hardware engine.
func (tl *Timeline) NewEngine(name string) *Engine {
	e := &Engine{Name: name}
	tl.engines = append(tl.engines, e)
	return e
}

// NewOp returns a zeroed op with the given label and kind, allocated from
// the timeline's slab: one allocation per opChunk ops instead of one per op.
// The op lives as long as any op of its chunk is referenced.
func (tl *Timeline) NewOp(label string, kind OpKind) *Op {
	if len(tl.slab) == cap(tl.slab) {
		tl.slab = make([]Op, 0, opChunk)
	}
	tl.slab = tl.slab[:len(tl.slab)+1]
	o := &tl.slab[len(tl.slab)-1]
	o.Label, o.Kind = label, kind
	return o
}

// NewStream creates a stream.
func (tl *Timeline) NewStream(name string) *Stream { return &Stream{Name: name} }

// Now returns the host thread's current simulated time.
func (tl *Timeline) Now() Time { return tl.host }

// AdvanceHost moves the host clock forward by d (host-side work).
func (tl *Timeline) AdvanceHost(d Time) {
	if d < 0 {
		panic("sim: negative host advance")
	}
	tl.host += d
}

// Ops returns all issued ops in issue order.
func (tl *Timeline) Ops() []*Op { return tl.ops }

// Engines returns the registered engines.
func (tl *Timeline) Engines() []*Engine { return tl.engines }

// Issue schedules op o on engine e within stream s, after the given extra
// dependencies. It models an asynchronous launch: the host is charged only
// LaunchOverhead; the op itself starts when the stream order, dependencies,
// engine availability, and the host issue time allow. Returns o.
func (tl *Timeline) Issue(o *Op, s *Stream, e *Engine, deps ...*Op) *Op {
	if o.DurationT < 0 {
		panic(fmt.Sprintf("sim: op %q has negative duration", o.Label))
	}
	start := tl.startTime(o, s, e, deps)
	o.Start = start
	o.End = start + o.DurationT
	tl.commit(o, s, e)
	return o
}

// Wait blocks the host until op o has completed (cudaEventSynchronize /
// cudaStreamSynchronize on a single op's event).
func (tl *Timeline) Wait(o *Op) {
	if o == nil {
		return
	}
	if o.End > tl.host {
		tl.host = o.End
	}
	tl.host += tl.SyncOverhead
}

// WaitStream blocks the host until everything issued so far on s completes.
func (tl *Timeline) WaitStream(s *Stream) { tl.Wait(s.last) }

// Span returns the [earliest start, latest end] over all ops, or (0,0) if no
// ops were issued.
func (tl *Timeline) Span() (Time, Time) {
	if len(tl.ops) == 0 {
		return 0, 0
	}
	start, end := tl.ops[0].Start, tl.ops[0].End
	for _, o := range tl.ops {
		if o.Start < start {
			start = o.Start
		}
		if o.End > end {
			end = o.End
		}
	}
	return start, end
}

// Validate checks scheduling invariants: every op starts no earlier than its
// dependencies end, and engines never run two ops at once. It is used by
// tests and by the executor's self-checks.
func (tl *Timeline) Validate() error {
	for _, o := range tl.ops {
		for _, d := range o.deps {
			if o.Start < d.End {
				return fmt.Errorf("op %d %q starts at %v before dep %d %q ends at %v",
					o.ID, o.Label, o.Start, d.ID, d.Label, d.End)
			}
		}
		if o.End-o.Start != o.DurationT {
			return fmt.Errorf("op %d %q has end-start %v != duration %v", o.ID, o.Label, o.End-o.Start, o.DurationT)
		}
	}
	for _, e := range tl.engines {
		var prev *Op
		for _, o := range e.ops {
			if prev != nil && o.Start < prev.End {
				return fmt.Errorf("engine %s overlap: op %d %q starts %v before op %d %q ends %v",
					e.Name, o.ID, o.Label, o.Start, prev.ID, prev.Label, prev.End)
			}
			prev = o
		}
	}
	return nil
}

// Interval is a [Start, End) slice of engine activity used by the overlap
// metrics.
type Interval struct {
	Start, End Time
	Op         *Op
}
