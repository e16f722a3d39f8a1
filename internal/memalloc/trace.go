package memalloc

import (
	"slices"

	"vdnn/internal/sim"
)

// Allocation-trace recording for differential sweep evaluation.
//
// The executor's allocator call sequence — every Alloc, Free and Flush, with
// their simulated timestamps — is a pure function of the configuration's
// *structure* (network, policy, algorithms, schedule), never of the pool's
// capacity, as long as every allocation succeeds: capacity feeds back into
// the simulation only through allocation failure (and through LargestFree,
// which only greedy algorithm selection consults). A trace recorded against
// an effectively infinite pool can therefore be replayed against any real
// capacity, and the replay's first failure is byte-for-byte the failure the
// full simulation would have hit — while a clean replay proves the full
// simulation would have succeeded with an identical timeline. That
// equivalence is what lets the sweep engine price a capacity/batch sweep
// point with one allocator replay instead of a whole re-simulation.
//
// A failed replay stands in for the failed run as well. Each recorded
// allocation carries the position its caller marked (Mark) to say where in
// the run it happened, and the replay pool's free ranges at the failure are
// the ones the run's pool would have had, so the caller rebuilds the run's
// exact error from the replay alone.

type traceKind uint8

const (
	traceAlloc traceKind = iota
	traceFree
	traceFlush
)

// traceOp is one recorded pool call. Allocations are numbered in recording
// order, so an allocation's block sequence number — the index of its label
// in the trace's table — is implicit. For traceAlloc, size is the
// *unrounded* request and arg the position marked when it was made; for
// traceFree, arg is the sequence number of the block being freed.
type traceOp struct {
	t    sim.Time
	size int64
	arg  int32
	op   traceKind
	kind uint8
}

// Trace is a recorded allocator call sequence.
type Trace struct {
	ops    []traceOp
	labels []string // every recorded allocation's label, in order; the recording pool's table
	pos    int32    // stamped on every allocation recorded from now on
}

// Len returns the number of recorded calls.
func (tr *Trace) Len() int { return len(tr.ops) }

// Trim drops the spare capacity a presized recording left behind, for a
// trace kept to be replayed. The trace must no longer be recording.
func (tr *Trace) Trim() {
	tr.ops = slices.Clone(tr.ops)
	tr.labels = slices.Clone(tr.labels)
}

// Mark sets the position recorded with every allocation that follows, until
// the next Mark; a fresh trace is at position 0. Positions are opaque here:
// the caller encodes where in its run the calls happen and decodes a replay
// Failure's Pos.
func (tr *Trace) Mark(pos int32) { tr.pos = pos }

// NewTraced creates a pool that records every Alloc, Free and Flush into tr
// in call order. The recorded sequence can be replayed against a different
// capacity with Replay.
func NewTraced(capacity int64, tr *Trace) *Pool {
	p := newPool(capacity)
	p.labels = &tr.labels
	p.trace = tr
	return p
}

func (tr *Trace) recordAlloc(t sim.Time, size int64, kind Kind) {
	tr.ops = append(tr.ops, traceOp{op: traceAlloc, kind: uint8(kind), t: t, size: size, arg: tr.pos})
}

func (tr *Trace) recordFree(b *Block, t sim.Time) {
	tr.ops = append(tr.ops, traceOp{op: traceFree, t: t, arg: b.seq})
}

func (tr *Trace) recordFlush(t sim.Time) {
	tr.ops = append(tr.ops, traceOp{op: traceFlush, t: t})
}

// Failure is a replay's first failing allocation: the position marked for
// it, the *OOMError the pool returned (whose Label is the request's), and
// the pool's free ranges right after the failure.
type Failure struct {
	Pos       int32
	Err       *OOMError
	FreeSpans [][2]int64
}

// Replay re-executes the recorded call sequence against a fresh pool of the
// given capacity, which must be positive, and returns the first allocation
// failure, or nil if every call succeeds. Because the pool is a
// deterministic function of its call sequence, a nil return proves a full
// simulation at this capacity would make exactly these calls and succeed; a
// non-nil return is that simulation's first failing allocation, with the
// error and free ranges its pool would have shown.
func (tr *Trace) Replay(capacity int64) *Failure {
	p := newPool(capacity) // the verdict needs no labels or usage timeline
	blocks := make([]*Block, 0, len(tr.labels))
	for i := range tr.ops {
		o := &tr.ops[i]
		switch o.op {
		case traceAlloc:
			b, err := p.Alloc(o.t, o.size, Kind(o.kind), tr.labels[len(blocks)])
			if err != nil {
				return &Failure{Pos: o.arg, Err: err.(*OOMError), FreeSpans: p.FreeSpans()}
			}
			blocks = append(blocks, b)
		case traceFree:
			p.Free(blocks[o.arg], o.t)
		case traceFlush:
			p.Flush(o.t)
		}
	}
	return nil
}
