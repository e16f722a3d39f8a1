package core

import (
	"sort"

	"vdnn/internal/dnn"
	"vdnn/internal/memalloc"
	"vdnn/internal/sim"
)

// assemble builds the Result of the measured window [winStart, winEnd).
// Lockstep replicas are symmetric, so pool usage, layer stats and Power
// describe the first device; pipeline stages each own a slice of the
// network, so they report the peak stage pool, the merged layers, the
// summed Power, per-stage rows in Stages and the measured bubble. Traffic,
// codec, host and energy counters aggregate over every device. A lone
// device carries no per-device detail: its byte counters count the
// transfers that start inside the window and its Power is its own.
func (g *grid) assemble(winStart, winEnd sim.Time) *Result {
	cfg := g.cfg
	r := &Result{
		Network:      g.net.Name,
		Batch:        g.net.Batch,
		Policy:       cfg.Policy,
		PolicyName:   g.rts[0].plan.PolicyName,
		Algo:         cfg.Algo,
		Oracle:       cfg.Oracle,
		Trainable:    true,
		IterTime:     winEnd - winStart,
		MicroBatches: cfg.MicroBatches, // 1 outside pipeline runs
		PeakByKind:   map[memalloc.Kind]int64{},
	}
	layers := g.rts[0].stats // lockstep replicas report the first one's
	if g.pipelined() {
		layers = make([]LayerStats, len(g.net.Layers)) // merged over the stages
	}
	arStart, arEnd := sim.Time(-1), sim.Time(-1)
	for i, rt := range g.rts {
		r.OffloadRawBytes += rt.offRawBytes
		r.PrefetchRawBytes += rt.preRawBytes
		r.CompressTime += rt.compressTime
		r.DecompressTime += rt.decompressTime
		r.HostPinnedPeak += rt.host.Peak()
		r.InterStageBytes += rt.ppSendBytes // each transfer counted once, at its sender
		r.InterStageRawBytes += rt.ppSendRaw
		if cfg.CaptureSchedule {
			r.Schedule = append(r.Schedule, rt.captureSchedule(winStart, winEnd)...)
		}

		var ms memalloc.Stats
		if i == 0 || g.pipelined() {
			rt.finalizeStats()
			if g.pipelined() {
				copy(layers[rt.lo:rt.hi], rt.stats[rt.lo:rt.hi])
			}
			ms = rt.pool.Measure(winStart, winEnd)
			r.MaxUsage = max(r.MaxUsage, ms.Peak)
			r.AvgUsage = max(r.AvgUsage, ms.Avg)
			for k, v := range ms.PeakByKind {
				r.PeakByKind[k] += v
			}
			for _, k := range memalloc.Kinds() {
				if v := rt.fw.UsedByKind(k); v > 0 {
					r.PeakByKind[k] += v
				}
			}
			r.FrameworkBytes += rt.fw.Used()
			r.OnDemandFetches += rt.onDemand
			if cfg.Debug && !g.pipelined() {
				r.DebugPeakTime = ms.PeakTime
				r.DebugPeakLive = rt.pool.SnapshotAt(ms.PeakTime)
			}
		}

		if len(g.rts) == 1 {
			for _, eng := range rt.dev.Engines() {
				for _, o := range eng.Ops() {
					if o.Start < winStart || o.Start >= winEnd {
						continue
					}
					switch o.Kind {
					case sim.OpCopyD2H:
						r.OffloadBytes += o.BusBytes
					case sim.OpCopyH2D:
						r.PrefetchBytes += o.BusBytes
					}
				}
			}
			r.Power, r.Energy = rt.dev.MeasurePowerEnergy(winStart, winEnd)
			continue
		}

		dr := rt.deviceResult(winStart, winEnd)
		r.Devices = append(r.Devices, dr)
		r.OffloadBytes += dr.OffloadBytes
		r.PrefetchBytes += dr.PrefetchBytes
		r.AllReduceBytes += dr.AllReduceBytes
		r.Energy = r.Energy.Add(dr.Energy)
		if !g.pipelined() {
			if i == 0 {
				r.Power = dr.Power
			}
			for _, eng := range rt.dev.Engines() {
				for _, o := range eng.Ops() {
					if o.Kind != sim.OpCopyP2P || o.End <= winStart || o.Start >= winEnd {
						continue
					}
					if arStart < 0 || o.Start < arStart {
						arStart = o.Start
					}
					arEnd = max(arEnd, o.End)
				}
			}
			continue
		}
		r.Power.AvgW += dr.Power.AvgW
		r.Power.MaxW += dr.Power.MaxW
		sr := StageResult{
			Stage:         i,
			FirstLayer:    rt.lo,
			LastLayer:     rt.hi - 1,
			StepTime:      dr.StepTime,
			ComputeBusy:   dr.ComputeBusy,
			BubbleTime:    dr.StepTime - dr.ComputeBusy,
			SendBytes:     rt.ppSendBytes,
			RecvBytes:     rt.ppRecvBytes,
			OffloadBytes:  dr.OffloadBytes,
			PrefetchBytes: dr.PrefetchBytes,
			PoolPeak:      ms.Peak,
		}
		r.Stages = append(r.Stages, sr)
		r.BubbleTime += sr.BubbleTime
	}
	if cfg.CaptureSchedule {
		sortSchedule(r.Schedule)
	}
	if arEnd > arStart && arStart >= 0 {
		r.AllReduceTime = arEnd - arStart
	}
	if g.pipelined() && r.IterTime > 0 {
		r.BubbleFraction = float64(r.BubbleTime) / (float64(len(g.rts)) * float64(r.IterTime))
	}
	r.CompressionRatio = compressionRatio(r.OffloadRawBytes, r.OffloadBytes)
	r.MaxWorkingSet = maxWorkingSet(layers)
	r.FETime = feWindow(layers)
	if r.FETime == 0 {
		r.FETime = r.IterTime
	}
	r.Layers = layers
	return r
}

// finalizeStats fills the derived per-layer fields (forward start, reuse
// distance, chosen algorithms) for the runtime's owned layers.
func (e *runtime) finalizeStats() {
	for i := e.lo; i < e.hi; i++ {
		st := &e.stats[i]
		st.FwdStart = e.fwdStarts[i]
		if st.BwdStart > st.FwdEnd && st.FwdEnd > 0 {
			st.ReuseDistance = st.BwdStart - st.FwdEnd
		}
		if e.net.Layers[i].Kind == dnn.Conv {
			st.AlgoFwd = e.chosenAlg[i].Fwd
			st.AlgoBwdData = e.chosenAlg[i].BwdData
			st.AlgoBwdFilter = e.chosenAlg[i].BwdFilter
		}
	}
}

// maxWorkingSet is the largest per-layer kernel working set across stats.
func maxWorkingSet(stats []LayerStats) int64 {
	var max int64
	for i := range stats {
		if ws := stats[i].FwdWorkingSet; ws > max {
			max = ws
		}
		if ws := stats[i].BwdWorkingSet; ws > max {
			max = ws
		}
	}
	return max
}

// feWindow derives the feature-extraction time (the paper's performance
// metric) from finalized layer stats: the span of the forward FE window plus
// the span of the backward FE window.
func feWindow(stats []LayerStats) sim.Time {
	var fwdFEStart, fwdFEEnd, bwdFEStart, bwdFEEnd sim.Time
	first := true
	for i := range stats {
		st := &stats[i]
		if st.Stage != dnn.FeatureExtraction {
			continue
		}
		if first || st.FwdStart < fwdFEStart {
			fwdFEStart = st.FwdStart
		}
		if st.FwdEnd > fwdFEEnd {
			fwdFEEnd = st.FwdEnd
		}
		if st.BwdStart > 0 && (bwdFEStart == 0 || st.BwdStart < bwdFEStart) {
			bwdFEStart = st.BwdStart
		}
		if st.BwdEnd > bwdFEEnd {
			bwdFEEnd = st.BwdEnd
		}
		first = false
	}
	var fe sim.Time
	if fwdFEEnd > fwdFEStart {
		fe = fwdFEEnd - fwdFEStart
	}
	if bwdFEEnd > bwdFEStart {
		fe += bwdFEEnd - bwdFEStart
	}
	return fe
}

// captureSchedule records this device's ops inside the window.
func (e *runtime) captureSchedule(winStart, winEnd sim.Time) []ScheduleOp {
	var out []ScheduleOp
	for _, eng := range e.dev.Engines() {
		for _, o := range eng.Ops() {
			if o.End <= winStart || o.Start >= winEnd || o.DurationT == 0 {
				continue
			}
			out = append(out, ScheduleOp{
				Device: e.dev.ID,
				Engine: eng.Name, Label: o.Label, Kind: o.Kind.String(),
				Start: o.Start, End: o.End,
			})
		}
	}
	return out
}

// sortSchedule imposes a total, deterministic order on captured ops so
// exported traces are stable byte for byte (the golden-trace tests rely on
// it): by start time, then device, then engine, then end, then label.
func sortSchedule(s []ScheduleOp) {
	sort.Slice(s, func(i, j int) bool {
		a, b := s[i], s[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Device != b.Device {
			return a.Device < b.Device
		}
		if a.Engine != b.Engine {
			return a.Engine < b.Engine
		}
		if a.End != b.End {
			return a.End < b.End
		}
		return a.Label < b.Label
	})
}

// deviceResult summarizes one device's measured iteration.
func (e *runtime) deviceResult(winStart, winEnd sim.Time) DeviceResult {
	dr := DeviceResult{Device: e.dev.ID}
	var minS, maxE sim.Time
	first := true
	var computeIv, copyIv []sim.Interval
	for _, eng := range e.dev.Engines() {
		for _, o := range eng.Ops() {
			if o.End <= winStart || o.Start >= winEnd || o.DurationT == 0 {
				continue
			}
			if first || o.Start < minS {
				minS = o.Start
			}
			if o.End > maxE {
				maxE = o.End
			}
			first = false
			switch o.Kind {
			case sim.OpKernel:
				dr.ComputeBusy += o.DurationT
				computeIv = append(computeIv, sim.Interval{Start: o.Start, End: o.End, Op: o})
			case sim.OpCompress, sim.OpDecompress:
				// Codec passes keep their DMA engine busy like any copy and
				// can hide behind compute the same way; they move no wire
				// bytes and never stall on the interconnect.
				dr.CopyBusy += o.DurationT
				dr.CodecBusy += o.DurationT
				copyIv = append(copyIv, sim.Interval{Start: o.Start, End: o.End, Op: o})
			case sim.OpCopyD2H, sim.OpCopyH2D, sim.OpCopyP2P, sim.OpCopyStage:
				dr.CopyBusy += o.DurationT
				copyIv = append(copyIv, sim.Interval{Start: o.Start, End: o.End, Op: o})
				switch o.Kind {
				case sim.OpCopyD2H:
					dr.OffloadBytes += o.BusBytes
				case sim.OpCopyH2D:
					dr.PrefetchBytes += o.BusBytes
				case sim.OpCopyP2P:
					dr.AllReduceBytes += o.BusBytes
				}
				if !e.cfg.PageMigration {
					if stall := o.DurationT - e.cfg.Spec.Link.DMATime(o.BusBytes); stall > 0 {
						dr.ContentionStall += stall
					}
				}
			}
		}
	}
	if !first {
		dr.StepTime = maxE - minS
	}
	if dr.CopyBusy > 0 {
		dr.OverlapEff = float64(overlapTime(copyIv, computeIv)) / float64(dr.CopyBusy)
	}
	dr.OffloadRawBytes = e.offRawBytes
	dr.CompressionRatio = compressionRatio(dr.OffloadRawBytes, dr.OffloadBytes)
	dr.Power, dr.Energy = e.dev.MeasurePowerEnergy(winStart, winEnd)
	return dr
}

// compressionRatio is raw/wire, defaulting to 1 when there is no traffic.
func compressionRatio(raw, wire int64) float64 {
	if wire <= 0 || raw <= 0 {
		return 1
	}
	return float64(raw) / float64(wire)
}

// ReplicaMeans averages the per-replica metrics of a data-parallel result:
// mean step time, mean contention stall and mean overlap efficiency. A
// single-device result has no per-device detail — its transfers never
// contend — so it reports (IterTime, 0, 1).
func (r *Result) ReplicaMeans() (step, stall sim.Time, overlap float64) {
	if len(r.Devices) == 0 {
		return r.IterTime, 0, 1
	}
	for _, d := range r.Devices {
		step += d.StepTime
		stall += d.ContentionStall
		overlap += d.OverlapEff
	}
	n := len(r.Devices)
	return step / sim.Time(n), stall / sim.Time(n), overlap / float64(n)
}

// DeviceImbalance is the compute-load imbalance across a run's devices: the
// maximum per-device compute-busy time over the mean. 1 means perfectly
// balanced — symmetric data-parallel replicas sit there by construction,
// while pipeline stages report how unevenly the partitioner split the
// network. Single-device results report 1.
func (r *Result) DeviceImbalance() float64 {
	if len(r.Devices) == 0 {
		return 1
	}
	var total, max sim.Time
	for _, d := range r.Devices {
		total += d.ComputeBusy
		if d.ComputeBusy > max {
			max = d.ComputeBusy
		}
	}
	if total == 0 {
		return 1
	}
	mean := float64(total) / float64(len(r.Devices))
	return float64(max) / mean
}

// overlapTime returns the total time the intervals of a spend inside the
// union of the intervals of b.
func overlapTime(a, b []sim.Interval) sim.Time {
	merged := mergeIntervals(b)
	var total sim.Time
	for _, iv := range a {
		for _, m := range merged {
			lo, hi := iv.Start, iv.End
			if m.Start > lo {
				lo = m.Start
			}
			if m.End < hi {
				hi = m.End
			}
			if hi > lo {
				total += hi - lo
			}
		}
	}
	return total
}

// mergeIntervals coalesces intervals into a sorted, disjoint set.
func mergeIntervals(iv []sim.Interval) []sim.Interval {
	if len(iv) == 0 {
		return nil
	}
	s := append([]sim.Interval(nil), iv...)
	sort.Slice(s, func(i, j int) bool { return s[i].Start < s[j].Start })
	out := s[:1]
	for _, x := range s[1:] {
		last := &out[len(out)-1]
		if x.Start <= last.End {
			if x.End > last.End {
				last.End = x.End
			}
			continue
		}
		out = append(out, x)
	}
	return out
}
