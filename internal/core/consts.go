package core

import (
	"strings"

	"vdnn/internal/cudnnsim"
	"vdnn/internal/dnn"
)

// The per-run constant table. The paper's runtime fixes each layer's
// choices once and replays them every iteration (Figure 10's per-layer
// flags); the simulated runtime likewise resolves what does not change
// between iterations and micro-batches once per run, on first use, instead
// of re-deriving it at every issue: each layer's kernel costs and backward
// reads, and the labels of its buffer transfers. The labels that depend on
// the network alone — kernels, weights, feature maps — are the network's
// (dnn.NetworkLabels), built once for every run on it.

// layerConsts holds one layer's resolved constants.
type layerConsts struct {
	// Full-batch kernel costs, keyed by the algorithms they were computed
	// for: greedy selection may change those between iterations, and only
	// then are the costs recomputed.
	fwdCosted bool
	fwdAlgo   cudnnsim.ConvAlgo
	fwd       cudnnsim.Cost

	bwdCosted bool
	bwdAlgos  [2]cudnnsim.ConvAlgo // BwdData, BwdFilter
	bwd       [2]cudnnsim.Cost     // bwdKernelCosts' list
	nBwd      int

	bwdReads []*dnn.Tensor // the buffers the backward kernels read

	off []transferLabels // per plan.OffloadAt entry
	pre []transferLabels // per entry of the layer's prefetch list
}

// transferLabels names one buffer transfer's ops: the transfer's own label,
// and — built on first use, as only compressed transfers need it — the
// label of its codec pass.
type transferLabels struct {
	xfer, codec string
}

// fwdCost returns layer l's full-batch forward kernel cost under algos.
func (e *runtime) fwdCost(l *dnn.Layer, algos LayerAlgos) cudnnsim.Cost {
	lc := &e.lc[l.ID]
	if !lc.fwdCosted || lc.fwdAlgo != algos.Fwd {
		lc.fwd = fwdKernelCost(e.cfg.Spec, e.net.DType, l, algos)
		lc.fwdAlgo, lc.fwdCosted = algos.Fwd, true
	}
	return lc.fwd
}

// bwdCosts returns layer l's full-batch backward kernel costs under algos,
// in issue order.
func (e *runtime) bwdCosts(l *dnn.Layer, algos LayerAlgos) []cudnnsim.Cost {
	lc := &e.lc[l.ID]
	key := [2]cudnnsim.ConvAlgo{algos.BwdData, algos.BwdFilter}
	if !lc.bwdCosted || lc.bwdAlgos != key {
		lc.nBwd = copy(lc.bwd[:], bwdKernelCosts(e.cfg.Spec, e.net.DType, l, algos))
		lc.bwdAlgos, lc.bwdCosted = key, true
	}
	return lc.bwd[:lc.nBwd]
}

// bwdReads returns the buffers layer l's backward kernels read.
func (e *runtime) bwdReads(l *dnn.Layer) []*dnn.Tensor {
	lc := &e.lc[l.ID]
	if lc.bwdReads == nil {
		lc.bwdReads = l.BwdReads()
	}
	return lc.bwdReads
}

// offloadLabels names the transfer of layer l's i-th planned offload.
func (e *runtime) offloadLabels(l *dnn.Layer, i int) *transferLabels {
	lc := &e.lc[l.ID]
	bufs := e.plan.OffloadAt[l.ID]
	if lc.off == nil {
		lc.off = make([]transferLabels, len(bufs))
	}
	x := &lc.off[i]
	if x.xfer == "" {
		x.xfer = "OFF:" + l.Name + "(" + e.labels.Tensors[bufs[i].ID].FM + ")"
	}
	return x
}

// prefetchLabels names the transfer of the i-th buffer in layer l's
// prefetch list (prefetchList).
func (e *runtime) prefetchLabels(l *dnn.Layer, i int) *transferLabels {
	lc := &e.lc[l.ID]
	bufs := e.prefetchList(l)
	if lc.pre == nil {
		lc.pre = make([]transferLabels, len(bufs))
	}
	x := &lc.pre[i]
	if x.xfer == "" {
		x.xfer = "PRE:" + l.Name + "(" + e.labels.Tensors[bufs[i].ID].FM + ")"
	}
	return x
}

// offloadCodecLabel is the compression pass's label of an offload: CMP: in
// place of the transfer's OFF:.
func offloadCodecLabel(x *transferLabels) string {
	if x.codec == "" {
		x.codec = "CMP:" + strings.TrimPrefix(x.xfer, "OFF:")
	}
	return x.codec
}

// prefetchCodecLabel is the decompression pass's label of a prefetch: DEC:
// before the transfer's label.
func prefetchCodecLabel(x *transferLabels) string {
	if x.codec == "" {
		x.codec = "DEC:" + x.xfer
	}
	return x.codec
}

// stageLabels names one micro-batch's inter-stage transfers sent by a
// pipeline stage: the boundary activation it sends forward, with its codec
// passes, and the boundary gradient it sends back.
type stageLabels struct {
	actSend, actRecv transferLabels // PPS:/PPR:fm<id>.mb<m>; CMP:PPS:, DEC:PPR:
	gradSend         string         // PPS:grad<id>.mb<m>
	gradRecv         string         // PPR:grad<id>.mb<m>
}

// sendLabels returns the labels of micro-batch mb's inter-stage transfers
// sent by this stage.
func (e *runtime) sendLabels(mb int) *stageLabels {
	if e.stageLbl == nil {
		e.stageLbl = make([]stageLabels, e.mbCount)
	}
	return &e.stageLbl[mb]
}
