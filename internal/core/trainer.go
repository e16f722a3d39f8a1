package core

import (
	"context"
	"fmt"
	"slices"
	"strconv"

	"vdnn/internal/cudnnsim"
	"vdnn/internal/dnn"
	"vdnn/internal/gpu"
	"vdnn/internal/memalloc"
	"vdnn/internal/partition"
	"vdnn/internal/sim"
)

// execute simulates cfg.Iterations training iterations and returns metrics
// for the last one. An allocation failure anywhere aborts with an error
// (the configuration is untrainable). Every configuration runs as a grid of
// runtimes on one shared timeline: one device is the 1×1 grid, data
// parallelism the R×1 grid and a pipeline the 1×S grid. A done ctx aborts
// the run at the next layer (or micro-batch) boundary with an
// ErrCanceled-wrapping error. A non-nil tr records the allocator calls of a
// one-device run (differential evaluation; structure.go).
func execute(ctx context.Context, net *dnn.Network, cfg Config, pol OffloadPolicy, plan *Plan, tr *memalloc.Trace) (*Result, error) {
	g, err := newGrid(ctx, net, cfg, pol, plan, tr)
	if err != nil {
		return nil, err
	}
	step := g.stepLockstep
	if g.pipelined() {
		step = g.stepPipeline
	}
	var winStart sim.Time
	for iter := 0; iter < cfg.Iterations; iter++ {
		for _, rt := range g.rts {
			rt.iter = iter
			rt.resetIteration()
		}
		winStart = g.tl.Now()
		if err := step(); err != nil {
			return nil, iterationErr(iter, err)
		}
	}
	winEnd := g.tl.Now()
	if err := g.tl.Validate(); err != nil {
		return nil, fmt.Errorf("core: schedule invariant broken: %w", err)
	}
	for _, ch := range g.chans {
		if err := ch.Validate(); err != nil {
			return nil, fmt.Errorf("core: interconnect invariant broken: %w", err)
		}
	}
	return g.assemble(winStart, winEnd), nil
}

// maxDevices bounds the device count of a grid; far beyond any PCIe root
// complex.
const maxDevices = 64

// grid is the set of runtimes one run trains on: every device sits on the
// same timeline (one event clock, one host issue thread) and, under a shared
// topology, behind the same root-complex channels.
type grid struct {
	net   *dnn.Network
	cfg   Config
	tl    *sim.Timeline
	chans []*sim.SharedChannel // root.down, root.up; none on dedicated links
	rts   []*runtime
	tr    *memalloc.Trace // a lone device's allocator trace, if recording

	// member names a device in error text: "device" for replicas, "stage"
	// for pipeline stages, empty for a lone device (whose errors stay
	// unprefixed).
	member string
	bounds []stageBoundary // the pipeline's stage hand-offs
}

// newGrid builds the runtimes of one run: the whole network on one device,
// on cfg.Devices replicas under the same plan, or cfg.Stages contiguous
// stages, each under its own plan and split into cfg.MicroBatches
// micro-batches. The devices share the node's host DRAM, so each gets an
// even share of the pinned-memory budget. tr, which only a lone device may
// record into, traces its pool.
func newGrid(ctx context.Context, net *dnn.Network, cfg Config, pol OffloadPolicy, plan *Plan, tr *memalloc.Trace) (*grid, error) {
	g := &grid{net: net, cfg: cfg, tl: sim.New(cfg.Spec.LaunchOverhead, cfg.Spec.SyncOverhead), tr: tr}
	parts := []partition.Stage{{Lo: 0, Hi: len(net.Layers)}}
	mbCount := 1
	switch {
	case cfg.Stages > 1:
		var err error
		if parts, g.bounds, err = pipelineStages(net, cfg, pol); err != nil {
			return nil, err
		}
		g.member, mbCount = "stage", cfg.MicroBatches
	case cfg.Devices > 1:
		parts = slices.Repeat(parts, cfg.Devices)
		g.member = "device"
	}
	var down, up *sim.SharedChannel
	if cfg.Topology.Shared() {
		down = sim.NewSharedChannel("root.down", float64(cfg.Topology.RootBps))
		up = sim.NewSharedChannel("root.up", float64(cfg.Topology.RootBps))
		g.chans = []*sim.SharedChannel{down, up}
	}

	devCfg := cfg
	devCfg.HostBytes = cfg.HostBytes / int64(len(parts))
	g.rts = make([]*runtime, 0, len(parts))
	for i, p := range parts {
		dev := gpu.NewDeviceOn(g.tl, cfg.Spec, i, down, up)
		dev.UsePageMigration = cfg.PageMigration
		devPlan := plan
		if g.pipelined() {
			var err error
			if devPlan, err = buildStagePlan(net, cfg, pol, p.Lo, p.Hi); err != nil {
				return nil, g.tag(i, err)
			}
		}
		rt, err := newRuntime(net, devCfg, devPlan, dev, p.Lo, p.Hi, mbCount, tr)
		if err != nil {
			return nil, g.tag(i, err)
		}
		rt.ctx = ctx
		g.rts = append(g.rts, rt)
	}
	return g, nil
}

// pipelined reports whether the grid is a pipeline (1×S) rather than a set
// of lockstep replicas (R×1, R >= 1).
func (g *grid) pipelined() bool { return g.bounds != nil }

// tag prefixes err with the failing device's place in the grid.
func (g *grid) tag(i int, err error) error {
	if g.member == "" {
		return err
	}
	return fmt.Errorf("%s %d: %w", g.member, i, err)
}

// The passes of a training iteration that allocate, in issue order.
const (
	passInput = iota // the input batch (beginIteration)
	passFwd
	passBwd
)

// mark stamps the allocator trace, if the grid records one, with the run
// position of the allocations issued next: 0 (a fresh trace's) is setup,
// then come each iteration's input batch, every layer's forward pass and
// every layer's backward pass. failAt decodes it. A position fits an int32
// for any run shorter than 2^31 / (3 · layers) iterations.
func (g *grid) mark(pass, layer int) {
	if g.tr != nil {
		g.tr.Mark(int32(1 + (g.rts[0].iter*3+pass)*len(g.net.Layers) + layer))
	}
}

// failAt wraps an allocation failure at trace position pos in the error
// chain a one-device execute returns for it.
func failAt(net *dnn.Network, pos int32, err error) error {
	if pos == 0 {
		return err // setup is not part of any iteration
	}
	q, l := int(pos-1)/len(net.Layers), net.Layers[int(pos-1)%len(net.Layers)]
	return iterationErr(q/3, passErr(q%3, l, err))
}

func iterationErr(iter int, err error) error { return fmt.Errorf("iteration %d: %w", iter, err) }

// passErr prefixes err with the layer pass it happened in; the input batch
// carries no layer.
func passErr(pass int, l *dnn.Layer, err error) error {
	switch pass {
	case passFwd:
		return fmt.Errorf("fwd %s: %w", l.Name, err)
	case passBwd:
		return fmt.Errorf("bwd %s: %w", l.Name, err)
	}
	return err
}

// stepLockstep drives one training step across the replicas in lockstep.
// The host thread walks the layer sequence, issuing a layer's work on every
// replica before performing the end-of-layer synchronizations — the paper's
// Figure 9 loop, generalized to several GPUs; with one replica it is that
// loop exactly. A ring all-reduce synchronizes the weight gradients before
// the SGD updates run.
func (g *grid) stepLockstep() error {
	g.mark(passInput, 0)
	for i, r := range g.rts {
		if err := r.beginIteration(); err != nil {
			return g.tag(i, err)
		}
	}
	fp := make([]fwdPending, len(g.rts))
	for _, l := range g.net.Layers {
		if err := g.rts[0].checkCtx(); err != nil {
			return err
		}
		g.mark(passFwd, l.ID)
		for i, r := range g.rts {
			p, err := r.issueForward(l)
			if err != nil {
				return g.tag(i, passErr(passFwd, l, err))
			}
			fp[i] = p
		}
		for i, r := range g.rts {
			r.finishForward(fp[i])
		}
	}
	bp := make([]bwdPending, len(g.rts))
	for j := len(g.net.Layers) - 1; j >= 0; j-- {
		if err := g.rts[0].checkCtx(); err != nil {
			return err
		}
		l := g.net.Layers[j]
		g.mark(passBwd, j)
		for i, r := range g.rts {
			p, err := r.issueBackward(l)
			if err != nil {
				return g.tag(i, passErr(passBwd, l, err))
			}
			bp[i] = p
		}
		for i, r := range g.rts {
			r.finishBackward(bp[i])
		}
	}
	// The convnet-benchmarks timing protocol (SkipWeightUpdate) drops the
	// weight update and with it the gradient sync that exists only to feed
	// it — otherwise the all-reduce would dangle past the iteration
	// boundary, unsynchronized by anything.
	if !g.cfg.SkipWeightUpdate {
		synced := allReduce(g.rts)
		for i, r := range g.rts {
			if err := r.weightUpdate(synced[i]); err != nil {
				return g.tag(i, err)
			}
		}
	}
	for i, r := range g.rts {
		if err := r.endIteration(); err != nil {
			return g.tag(i, err)
		}
	}
	return nil
}

// beginIteration prepares the input batch buffer. The baseline holds it
// network-wide; vDNN allocates it per iteration (per micro-batch under
// pipeline parallelism — each micro-batch feeds its own input slice).
func (e *runtime) beginIteration() error {
	in := e.buf[e.net.Input.ID]
	if in.block == nil {
		b, err := e.alloc(e.mbShare(e.net.Input.Bytes(e.net.DType)), memalloc.KindFeatureMap, "input")
		if err != nil {
			return err
		}
		in.block = b
	}
	in.offloaded = false
	in.lastWrite = nil
	return nil
}

// weightUpdate issues the SGD update kernels. syncDep, when non-nil, orders
// every update after it — a replica passes its final all-reduce transfer so
// no weight updates before its gradients are globally reduced.
func (e *runtime) weightUpdate(syncDep *sim.Op) error {
	if e.cfg.SkipWeightUpdate {
		return nil
	}
	for _, l := range e.net.Layers {
		if !e.owned(l.ID) {
			continue // another pipeline stage holds these weights
		}
		if w := l.WeightBytes(e.net.DType); w > 0 {
			c := cudnnsim.ElementwiseCost(e.cfg.Spec, w, 3)
			var dep *sim.Op
			ws := e.wState[l.ID]
			if ws != nil {
				if ws.block == nil {
					return fmt.Errorf("core: weights of %s not resident at update", l.Name)
				}
				dep = ws.lastWrite
			}
			op := e.dev.Kernel(e.labels.Layers[l.ID].Update, c.Dur, c.Flops, c.DRAMBytes, dep, syncDep)
			if ws != nil {
				ws.lastWrite = op
			}
		}
	}
	return nil
}

// endIteration drains both streams, flushes the pool's pending frees and
// asserts the release discipline.
func (e *runtime) endIteration() error {
	e.dev.TL.WaitStream(e.dev.StreamCompute)
	e.dev.TL.WaitStream(e.dev.StreamMemory)
	e.pool.Flush(e.now())
	return e.checkIterationEnd()
}

// allReduce injects a ring all-reduce of the weight gradients over the
// interconnect: 2(N-1) phases in which every replica simultaneously sends
// one gradient chunk to its ring successor and receives one from its
// predecessor. Each replica moves 2(N-1)/N of the model per direction — the
// bandwidth-optimal schedule — and under a shared topology this traffic
// contends with everything else on the root complex. It returns each
// replica's last transfer, the gate of its SGD updates (nil when there is
// nothing to reduce).
func allReduce(reps []*runtime) []*sim.Op {
	n := len(reps)
	recv := make([]*sim.Op, n)
	if n < 2 {
		return recv
	}
	gradBytes := reps[0].net.TotalWeightBytes()
	if gradBytes == 0 {
		return recv
	}
	chunk := (gradBytes + int64(n) - 1) / int64(n)
	for phase := 0; phase < 2*(n-1); phase++ {
		p := strconv.Itoa(phase)
		sendLabel, recvLabel := "AR-send:p"+p, "AR-recv:p"+p
		send := make([]*sim.Op, n)
		for i, r := range reps {
			// The first send waits for the replica's gradients (everything
			// queued on stream_compute); later sends forward the chunk
			// received in the previous phase.
			dep := recv[i]
			if dep == nil {
				dep = r.dev.StreamCompute.Last()
			}
			send[i] = r.dev.PeerSend(sendLabel, chunk, r.arSend, dep)
		}
		for i, r := range reps {
			peer := send[(i-1+n)%n]
			recv[i] = r.dev.PeerRecv(recvLabel, chunk, r.arRecv, peer)
		}
	}
	return recv
}
