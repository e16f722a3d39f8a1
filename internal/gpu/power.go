package gpu

import "vdnn/internal/sim"

// PowerStats summarizes simulated board power over a time window, mirroring
// what the paper collects with nvprof (Section V-D): the time-weighted
// average and the instantaneous maximum.
type PowerStats struct {
	AvgW float64 `json:"avg_w"`
	MaxW float64 `json:"max_w"`
}

// EnergyStats is the per-op energy breakdown of the same window, in joules:
// the power timeline's integral attributed to what the board was doing.
// Every watt of every segment lands in exactly one bucket, so
// TotalJ() == AvgW x window (the MeasurePower integral) by construction —
// the conservation invariant the energy tests pin.
//
//   - ComputeJ: the compute-engine term plus the DRAM term driven by kernel
//     traffic.
//   - DMAJ: busy copy-engine terms plus the DRAM term driven by transfer
//     traffic (offload, prefetch, peer, inter-stage).
//   - CodecJ: the compressing-DMA passes' engine and DRAM terms.
//   - IdleJ: the idle floor, paid for the whole window regardless of work.
type EnergyStats struct {
	ComputeJ float64 `json:"compute_j"`
	DMAJ     float64 `json:"dma_j"`
	CodecJ   float64 `json:"codec_j"`
	IdleJ    float64 `json:"idle_j"`
}

// TotalJ is the whole-window energy, equal to the power-timeline integral.
func (e EnergyStats) TotalJ() float64 { return e.ComputeJ + e.DMAJ + e.CodecJ + e.IdleJ }

// Add returns the component-wise sum; multi-device results aggregate
// per-device breakdowns with it.
func (e EnergyStats) Add(o EnergyStats) EnergyStats {
	return EnergyStats{
		ComputeJ: e.ComputeJ + o.ComputeJ,
		DMAJ:     e.DMAJ + o.DMAJ,
		CodecJ:   e.CodecJ + o.CodecJ,
		IdleJ:    e.IdleJ + o.IdleJ,
	}
}

// MeasurePower evaluates the device's linear power model over [start, end).
func (d *Device) MeasurePower(start, end sim.Time) PowerStats {
	s, _ := d.MeasurePowerEnergy(start, end)
	return s
}

// MeasurePowerEnergy evaluates the linear power model over [start, end) and
// attributes the same timeline's energy to compute/DMA/codec/idle. The
// instantaneous power in any interval is determined by which engines are
// busy and by the achieved DRAM bandwidth of the ops running there, so the
// measurement sweeps the op boundaries; both results come from one sweep and
// the PowerStats arithmetic is exactly the historical MeasurePower's, so
// adding the breakdown changed no reported watt.
//
// The sweep merges rather than sorts. Each of the device's engines is
// serial and runs its ops in issue order, so its op list is already ordered
// by both start and end, and at most one of its ops is active at any time.
// One cursor per engine therefore yields every op boundary in time order:
// the next boundary is the earliest of each engine's active op's end or
// next op's start. Zero-duration ops and ops outside the window are skipped.
// The sweep allocates nothing.
func (d *Device) MeasurePowerEnergy(start, end sim.Time) (PowerStats, EnergyStats) {
	p := d.Spec.Power
	if end <= start {
		return PowerStats{AvgW: p.IdleW, MaxW: p.IdleW}, EnergyStats{}
	}
	engines := [...]*sim.Engine{d.Compute, d.DMADown, d.DMAUp}
	var next [len(engines)]int // per engine: its first op not yet ended at the cursor

	stats := PowerStats{MaxW: p.IdleW}
	var es EnergyStats
	var energy float64 // watt-seconds
	for cursor := start; cursor < end; {
		// The segment [cursor, t) runs the ops active at cursor, up to the
		// next boundary t.
		t := end
		var buf [len(engines)]*sim.Op
		active := buf[:0]
		for k, e := range engines {
			ops := e.Ops()
			i := next[k]
			for i < len(ops) && (ops[i].DurationT == 0 || ops[i].End <= cursor) {
				i++
			}
			next[k] = i
			if i == len(ops) || ops[i].Start >= end {
				continue
			}
			if o := ops[i]; o.Start <= cursor {
				active = insertByID(active, o)
				t = min(t, o.End)
			} else {
				t = min(t, o.Start)
			}
		}
		w, cw, dw, xw := d.segmentPower(active)
		s := (t - cursor).Seconds()
		energy += w * s
		es.IdleJ += p.IdleW * s
		es.ComputeJ += cw * s
		es.DMAJ += dw * s
		es.CodecJ += xw * s
		if w > stats.MaxW {
			stats.MaxW = w
		}
		cursor = t
	}
	stats.AvgW = energy / (end - start).Seconds()
	return stats, es
}

// insertByID inserts o into active, keeping the active ops in op-ID order.
// Engine order suffices for the merge, since each engine's own list is
// already in time order, but not for the sums: segmentPower adds the active
// ops' bandwidths in iteration order, and float addition of three terms
// rounds differently in different orders. Iterating in ID order keeps every
// reported watt and joule bit-identical to the sorted sweep, which kept its
// active set by ID; with at most one active op per engine, this is an
// insertion into at most three.
func insertByID(active []*sim.Op, o *sim.Op) []*sim.Op {
	active = append(active, o)
	for i := len(active) - 1; i > 0 && active[i-1].ID > o.ID; i-- {
		active[i], active[i-1] = active[i-1], active[i]
	}
	return active
}

// segmentPower returns the watts of a segment running the active ops —
// computed with the identical accumulation the historical MeasurePower used
// — plus the above-idle watts attributed to each category. The DRAM term is
// one clamped total (DRAMW x min(1, sum bps / peak)); its attribution splits
// it in proportion to each category's share of the bandwidth sum, so the
// split is exact even when the clamp engages.
func (d *Device) segmentPower(active []*sim.Op) (w, computeW, dmaW, codecW float64) {
	p := d.Spec.Power
	w = p.IdleW
	computeBusy := false
	var dramBps float64
	copies := 0
	var kernelBps, copyBps, codecBps float64
	nCopy, nCodec := 0, 0
	for _, o := range active {
		bps := float64(o.DRAMBytes) / o.DurationT.Seconds() // active ops have DurationT > 0
		switch o.Kind {
		case sim.OpKernel:
			computeBusy = true
			kernelBps += bps
		case sim.OpCompress, sim.OpDecompress:
			copies++ // codec passes keep their DMA engine busy
			nCodec++
			codecBps += bps
		case sim.OpCopyD2H, sim.OpCopyH2D, sim.OpCopyP2P, sim.OpCopyStage:
			copies++
			nCopy++
			copyBps += bps
		}
		dramBps += bps
	}
	if computeBusy {
		w += p.ComputeW
		computeW = p.ComputeW
	}
	frac := dramBps / d.Spec.DRAMBps
	if frac > 1 {
		frac = 1
	}
	w += p.DRAMW * frac
	w += p.CopyW * float64(copies)
	dmaW = p.CopyW * float64(nCopy)
	codecW = p.CopyW * float64(nCodec)
	if catBps := kernelBps + copyBps + codecBps; catBps > 0 {
		dram := p.DRAMW * frac
		computeW += dram * kernelBps / catBps
		dmaW += dram * copyBps / catBps
		codecW += dram * codecBps / catBps
	}
	return w, computeW, dmaW, codecW
}
