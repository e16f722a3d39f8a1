package gpu_test

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"vdnn/internal/core"
	"vdnn/internal/dnn"
	"vdnn/internal/gpu"
	"vdnn/internal/networks"
	"vdnn/internal/sim"
)

// measurePowerEnergyRef is the sweep as it stood before the per-engine
// merge: every op's clipped edges in one list, sorted by time (ends before
// starts at ties), with an active set kept ordered by op ID. The merge must
// reproduce it exactly — same segments, same per-segment float accumulation
// order — so the tests compare with ==, not a tolerance.
func measurePowerEnergyRef(d *gpu.Device, start, end sim.Time) (gpu.PowerStats, gpu.EnergyStats) {
	if end <= start {
		return gpu.PowerStats{AvgW: d.Spec.Power.IdleW, MaxW: d.Spec.Power.IdleW}, gpu.EnergyStats{}
	}
	type edge struct {
		t     sim.Time
		delta int // +1 op starts, -1 op ends
		op    *sim.Op
	}
	var ops []*sim.Op
	for _, e := range d.Engines() {
		ops = append(ops, e.Ops()...)
	}
	edges := make([]edge, 0, 2*len(ops))
	for _, o := range ops {
		if o.DurationT == 0 || o.End <= start || o.Start >= end {
			continue
		}
		s, e := o.Start, o.End
		if s < start {
			s = start
		}
		if e > end {
			e = end
		}
		edges = append(edges, edge{s, +1, o}, edge{e, -1, o})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].t != edges[j].t {
			return edges[i].t < edges[j].t
		}
		return edges[i].delta < edges[j].delta
	})

	p := d.Spec.Power
	active := make([]*sim.Op, 0, 16)
	add := func(o *sim.Op) {
		i := sort.Search(len(active), func(i int) bool { return active[i].ID >= o.ID })
		active = append(active, nil)
		copy(active[i+1:], active[i:])
		active[i] = o
	}
	remove := func(o *sim.Op) {
		i := sort.Search(len(active), func(i int) bool { return active[i].ID >= o.ID })
		if i < len(active) && active[i] == o {
			active = append(active[:i], active[i+1:]...)
		}
	}
	power := func() (w, computeW, dmaW, codecW float64) {
		w = p.IdleW
		computeBusy := false
		var dramBps float64
		copies := 0
		var kernelBps, copyBps, codecBps float64
		nCopy, nCodec := 0, 0
		for _, o := range active {
			var bps float64
			if o.DurationT > 0 {
				bps = float64(o.DRAMBytes) / o.DurationT.Seconds()
			}
			switch o.Kind {
			case sim.OpKernel:
				computeBusy = true
				kernelBps += bps
			case sim.OpCompress, sim.OpDecompress:
				copies++
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

	stats := gpu.PowerStats{MaxW: p.IdleW}
	var es gpu.EnergyStats
	var energy float64
	account := func(dt sim.Time) {
		w, cw, dw, xw := power()
		s := dt.Seconds()
		energy += w * s
		es.IdleJ += p.IdleW * s
		es.ComputeJ += cw * s
		es.DMAJ += dw * s
		es.CodecJ += xw * s
		if w > stats.MaxW {
			stats.MaxW = w
		}
	}
	cursor := start
	i := 0
	for i < len(edges) {
		t := edges[i].t
		if t > cursor {
			account(t - cursor)
			cursor = t
		}
		for i < len(edges) && edges[i].t == t {
			if edges[i].delta > 0 {
				add(edges[i].op)
			} else {
				remove(edges[i].op)
			}
			i++
		}
	}
	if cursor < end {
		account(end - cursor)
	}
	stats.AvgW = energy / (end - start).Seconds()
	return stats, es
}

// checkSweep compares the sweep with the reference over [start, end).
func checkSweep(t *testing.T, label string, d *gpu.Device, start, end sim.Time) {
	t.Helper()
	gotP, gotE := d.MeasurePowerEnergy(start, end)
	wantP, wantE := measurePowerEnergyRef(d, start, end)
	if gotP != wantP || gotE != wantE {
		t.Fatalf("%s [%v, %v): sweep %+v %+v, reference %+v %+v",
			label, start, end, gotP, gotE, wantP, wantE)
	}
}

// dramBytes draws an op's DRAM traffic: none, a rate past the device's peak
// bandwidth (which clamps the DRAM term), or — mostly — a fraction of the
// peak small enough that three concurrent ops stay under it, where the order
// their bandwidths are summed in shows in the watts.
func dramBytes(rng *rand.Rand, spec gpu.Spec, dur sim.Time) int64 {
	var frac float64
	switch rng.Intn(8) {
	case 0:
	case 1:
		frac = 1 + rng.Float64()/2
	default:
		frac = rng.Float64() / 3
	}
	return int64(frac * spec.DRAMBps * dur.Seconds())
}

// randomDevice issues a random three-engine schedule. Durations and host
// advances are small multiples of one quantum and ops wait on random earlier
// ops, so starts and ends coincide across engines; some ops take no time.
func randomDevice(rng *rand.Rand) *gpu.Device {
	spec := gpu.TitanX()
	d := gpu.NewDeviceOn(sim.New(0, 0), spec, 0, nil, nil)
	const q = 10 * sim.Microsecond
	kinds := [][]sim.OpKind{
		{sim.OpKernel},
		{sim.OpCopyD2H, sim.OpCompress, sim.OpCopyP2P, sim.OpCopyStage},
		{sim.OpCopyH2D, sim.OpDecompress, sim.OpCopyP2P, sim.OpCopyStage},
	}
	engines := d.Engines()
	streams := []*sim.Stream{d.TL.NewStream("a"), d.TL.NewStream("b"), d.TL.NewStream("c")}
	var issued []*sim.Op
	for range 5 + rng.Intn(40) {
		k := rng.Intn(len(engines))
		o := d.TL.NewOp("op", kinds[k][rng.Intn(len(kinds[k]))])
		o.DurationT = sim.Time(rng.Intn(6)) * q
		o.DRAMBytes = dramBytes(rng, spec, o.DurationT)
		var deps []*sim.Op
		if len(issued) > 0 && rng.Intn(2) == 0 {
			deps = append(deps, issued[rng.Intn(len(issued))])
		}
		if rng.Intn(3) == 0 {
			d.TL.AdvanceHost(sim.Time(rng.Intn(4)) * q)
		}
		issued = append(issued, d.TL.Issue(o, streams[rng.Intn(len(streams))], engines[k], deps...))
	}
	return d
}

// TestPowerSweepMatchesReference checks the merged sweep against the sorted
// reference on random schedules, over windows that cover the schedule, cut
// ops at one or both ends, fall between or outside the ops, or are empty.
func TestPowerSweepMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const q = 10 * sim.Microsecond
	for trial := range 500 {
		d := randomDevice(rng)
		lo, hi := d.TL.Span()
		windows := [][2]sim.Time{{lo, hi}, {lo - q, hi + q}, {lo, lo}, {hi, lo}, {hi, hi + q}}
		for range 8 {
			a := lo + sim.Time(rng.Int63n(int64(hi-lo)+1))
			b := lo + sim.Time(rng.Int63n(int64(hi-lo)+1))
			if rng.Intn(2) == 0 { // on the quantum grid, where the edges are
				a, b = a/q*q, b/q*q
			}
			windows = append(windows, [2]sim.Time{min(a, b), max(a, b)})
		}
		for _, w := range windows {
			checkSweep(t, fmt.Sprintf("trial %d", trial), d, w[0], w[1])
		}
	}
}

// opKinds maps a captured op's kind name back to the simulator's kind.
var opKinds = func() map[string]sim.OpKind {
	k := map[string]sim.OpKind{}
	for o := sim.OpKernel; o <= sim.OpCopyStage; o++ {
		k[o.String()] = o
	}
	return k
}()

// recordedDevices simulates net under cfg with the schedule captured and
// re-issues every device's captured ops onto fresh devices sharing one
// overhead-free timeline, each op at its recorded start, on its recorded
// engine, for its recorded duration. The schedule carries no DRAM traffic,
// so each op's comes from dramBytes. It returns the devices and the
// schedule's span.
func recordedDevices(tb testing.TB, net *dnn.Network, cfg core.Config, rng *rand.Rand) ([]*gpu.Device, sim.Time, sim.Time) {
	tb.Helper()
	cfg.CaptureSchedule = true
	res, err := core.Run(net, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	sched := append([]core.ScheduleOp(nil), res.Schedule...)
	if len(sched) == 0 {
		tb.Fatalf("%s: empty schedule", net.Name)
	}
	sort.SliceStable(sched, func(i, j int) bool { return sched[i].Start < sched[j].Start })
	tl := sim.New(0, 0)
	var devs []*gpu.Device
	streams := map[*sim.Engine]*sim.Stream{}
	lo, hi := sched[0].Start, sched[0].End
	for _, so := range sched {
		for len(devs) <= so.Device {
			devs = append(devs, gpu.NewDeviceOn(tl, cfg.Spec, len(devs), nil, nil))
		}
		d := devs[so.Device]
		e := map[string]*sim.Engine{"compute": d.Compute, "copyD2H": d.DMADown, "copyH2D": d.DMAUp}[so.Engine]
		if e == nil {
			tb.Fatalf("op %q on unknown engine %q", so.Label, so.Engine)
		}
		if streams[e] == nil {
			streams[e] = tl.NewStream(so.Engine)
		}
		tl.AdvanceHost(so.Start - tl.Now())
		o := tl.NewOp(so.Label, opKinds[so.Kind])
		o.DurationT = so.End - so.Start
		o.DRAMBytes = dramBytes(rng, cfg.Spec, o.DurationT)
		if tl.Issue(o, streams[e], e).Start != so.Start {
			tb.Fatalf("op %q re-issued at %v, recorded at %v", so.Label, o.Start, so.Start)
		}
		lo, hi = min(lo, so.Start), max(hi, so.End)
	}
	return devs, lo, hi
}

// TestPowerSweepMatchesReferenceOnRuns checks the merged sweep against the
// sorted reference on every device of VGG-16 and GoogLeNet runs under
// vDNN-all(m) — single device, 2-way data parallel and a 2-stage pipeline —
// over the whole schedule, its middle half, and random windows.
func TestPowerSweepMatchesReferenceOnRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, net := range []*dnn.Network{networks.VGG16(64), networks.GoogLeNet(64)} {
		for _, shape := range []struct {
			name            string
			devices, stages int
		}{{"single", 1, 1}, {"data-parallel", 2, 1}, {"pipeline", 1, 2}} {
			cfg := core.Config{Spec: gpu.TitanX(), Policy: core.VDNNAll, Algo: core.MemOptimal,
				Devices: shape.devices, Stages: shape.stages}
			devs, lo, hi := recordedDevices(t, net, cfg, rng)
			if want := max(shape.devices, shape.stages); len(devs) != want {
				t.Fatalf("%s %s: %d devices recorded, want %d", net.Name, shape.name, len(devs), want)
			}
			quarter := (hi - lo) / 4
			windows := [][2]sim.Time{{lo, hi}, {lo + quarter, hi - quarter}}
			for range 4 {
				a := lo + sim.Time(rng.Int63n(int64(hi-lo)))
				b := lo + sim.Time(rng.Int63n(int64(hi-lo)))
				windows = append(windows, [2]sim.Time{min(a, b), max(a, b)})
			}
			for i, d := range devs {
				for _, w := range windows {
					checkSweep(t, fmt.Sprintf("%s %s device %d", net.Name, shape.name, i), d, w[0], w[1])
				}
			}
		}
	}
}

// vggIteration is one recorded VGG-16(64) vDNN-all(m) iteration.
func vggIteration(tb testing.TB) (*gpu.Device, sim.Time, sim.Time) {
	cfg := core.Config{Spec: gpu.TitanX(), Policy: core.VDNNAll, Algo: core.MemOptimal}
	devs, lo, hi := recordedDevices(tb, networks.VGG16(64), cfg, rand.New(rand.NewSource(3)))
	return devs[0], lo, hi
}

// TestPowerSweepAllocatesNothing: the sweep runs once per device of every
// simulated iteration and must not allocate.
func TestPowerSweepAllocatesNothing(t *testing.T) {
	d, lo, hi := vggIteration(t)
	if n := testing.AllocsPerRun(20, func() { d.MeasurePowerEnergy(lo, hi) }); n != 0 {
		t.Fatalf("MeasurePowerEnergy allocates %v times per call, want 0", n)
	}
}

// BenchmarkPowerSweep measures the power and energy sweep over one recorded
// VGG-16(64) vDNN-all(m) iteration.
func BenchmarkPowerSweep(b *testing.B) {
	d, lo, hi := vggIteration(b)
	b.ReportAllocs()
	for b.Loop() {
		d.MeasurePowerEnergy(lo, hi)
	}
}
