// Package figures regenerates every table and figure of the paper's
// evaluation (Section V) from the simulator: Figures 1, 4, 5, 6, 11, 12,
// 13, 14 and 15 plus the Section V-D power study, and the ablations the
// paper discusses qualitatively (prefetch scheduling, page migration,
// interconnect and capacity what-ifs). Each function returns a report.Table
// whose rows mirror the corresponding figure's series; cmd/vdnn-repro prints
// them and the root-level benchmarks publish their headline values as
// benchmark metrics.
package figures

import (
	"context"
	"fmt"
	"sync"
	"time"

	"vdnn"
	"vdnn/internal/core"
	"vdnn/internal/dnn"
	"vdnn/internal/gpu"
	"vdnn/internal/memalloc"
	"vdnn/internal/networks"
	"vdnn/internal/report"
	"vdnn/internal/sweep"
)

// Suite runs the evaluation on the public vdnn.Simulator: one result cache
// shared by every figure, ablation and case study — the same (network,
// config) pair is simulated exactly once across the whole evaluation — with
// simulations scheduled over the simulator's worker pool. Each experiment
// first enqueues its full configuration set as one batch (its jobs
// function), then formats rows from the cached results, so independent
// simulations of one table run concurrently. Simulations are deterministic,
// which makes every table byte-identical regardless of parallelism.
type Suite struct {
	Spec gpu.Spec

	sim *vdnn.Simulator

	mu      sync.Mutex
	nets    map[string]*dnn.Network
	timings map[string]time.Duration // wall clock of each experiment's last Gen
}

// NewSuite creates a Suite for the given device (use gpu.TitanX() for the
// paper's platform) running on all available cores.
func NewSuite(spec gpu.Spec) *Suite {
	return NewSuiteSim(spec, vdnn.NewSimulator())
}

// NewSuiteSim creates a Suite running on an existing simulator
// (vdnn.WithParallelism(1) yields the sequential reference). Suites sharing
// one simulator share its parallelism bound and its cached results.
func NewSuiteSim(spec gpu.Spec, sim *vdnn.Simulator) *Suite {
	return &Suite{Spec: spec, sim: sim, nets: map[string]*dnn.Network{},
		timings: map[string]time.Duration{}}
}

// Simulator exposes the suite's simulator (for cache statistics).
func (s *Suite) Simulator() *vdnn.Simulator { return s.sim }

// Experiment is one table of the evaluation: its vdnn-repro name, the full
// simulation set it reads (enqueued as one concurrent batch), and the
// formatter that renders it. Jobs is a scheduling hint, not a correctness
// requirement — Gen simulates any configuration its jobs function missed —
// so tables are identical whether or not (and how parallel) they were
// primed.
type Experiment struct {
	Name string
	Jobs func() []sweep.Job
	Gen  func() *report.Table
}

// Experiments lists every experiment in the order vdnn-repro prints them.
// Each Gen records its wall clock in the suite (see Timings), so sweep-level
// speedups are attributable to the experiments that earned them.
func (s *Suite) Experiments() []Experiment {
	exps := []Experiment{
		{"fig1", s.fig1Jobs, s.Fig1},
		{"fig4", s.fig1Jobs, s.Fig4}, // same simulation set as Figure 1
		{"fig5", s.fig5Jobs, s.Fig5},
		{"fig6", s.fig6Jobs, s.Fig6},
		{"fig11", s.fig11Jobs, s.Fig11},
		{"fig12", s.fig12Jobs, s.Fig12},
		{"fig13", s.fig13Jobs, s.Fig13},
		{"fig14", s.fig14Jobs, s.Fig14},
		{"fig15", s.fig15Jobs, s.Fig15},
		{"power", s.powerJobs, s.Power},
		{"ablation-prefetch", s.ablationPrefetchJobs, s.AblationPrefetch},
		{"ablation-pagemig", s.ablationPageMigrationJobs, s.AblationPageMigration},
		{"ablation-link", s.ablationInterconnectJobs, s.AblationInterconnect},
		{"ablation-capacity", s.ablationCapacityJobs, s.AblationCapacity},
		{"ablation-weights", s.ablationWeightOffloadJobs, s.AblationWeightOffload},
		{"ablation-batch", s.ablationBatchScalingJobs, s.AblationBatchScaling},
		{"case-multigpu", s.caseStudyMultiGPUJobs, s.CaseStudyMultiGPU},
		{"case-contention", s.caseStudyContentionJobs, s.CaseStudyContention},
		{"case-pipeline", s.caseStudyPipelineJobs, s.CaseStudyPipeline},
		{"case-compression", s.caseStudyCompressionJobs, s.CaseStudyCompression},
		{"case-precision", s.caseStudyPrecisionJobs, s.CaseStudyPrecision},
		{"case-devices", s.caseStudyDevicesJobs, s.CaseStudyDevices},
		{"case-resnet", s.caseStudyResNetJobs, s.CaseStudyResNet},
		{"case-plan", s.caseStudyPlannerJobs, s.CaseStudyPlanner},
		{"case-energy", s.caseStudyEnergyJobs, s.CaseStudyEnergy},
	}
	for i := range exps {
		name, gen := exps[i].Name, exps[i].Gen
		exps[i].Gen = func() *report.Table {
			start := time.Now()
			t := gen()
			s.mu.Lock()
			s.timings[name] = time.Since(start)
			s.mu.Unlock()
			return t
		}
	}
	return exps
}

// Timings reports the wall clock of every experiment generated so far (its
// most recent Gen, including any simulations its priming triggered), in
// experiment order, with the suite total and the simulator's cache counters
// as a note. Timing lives in this separate table — never in the figure
// tables themselves — so figure output stays byte-identical across runs and
// parallelism levels.
func (s *Suite) Timings() *report.Table {
	s.mu.Lock()
	timings := make(map[string]time.Duration, len(s.timings))
	for k, v := range s.timings {
		timings[k] = v
	}
	s.mu.Unlock()
	t := report.NewTable("Wall clock per experiment", "experiment", "wall clock (ms)")
	var total time.Duration
	for _, e := range s.Experiments() {
		d, ok := timings[e.Name]
		if !ok {
			continue
		}
		total += d
		t.AddRow(e.Name, fmt.Sprintf("%.1f", float64(d.Microseconds())/1000))
	}
	st := s.sim.Stats()
	t.AddNote("total %.1f ms; %d simulations (%d structures, %d priced), %d cache hits",
		float64(total.Microseconds())/1000, st.Simulations, st.Structures, st.Priced, st.Hits)
	return t
}

// Prime schedules a batch of simulations across the simulator's workers so
// the subsequent formatting pass is all cache hits.
func (s *Suite) Prime(jobs []sweep.Job) {
	if _, err := s.sim.RunBatch(context.Background(), jobs); err != nil {
		panic(fmt.Sprintf("figures: %v", err))
	}
}

// net returns a memoized network instance.
func (s *Suite) net(build func() *dnn.Network, key string) *dnn.Network {
	s.mu.Lock()
	defer s.mu.Unlock()
	n, ok := s.nets[key]
	if !ok {
		n = build()
		s.nets[key] = n
	}
	return n
}

func (s *Suite) conventional() []*dnn.Network {
	return []*dnn.Network{
		s.net(func() *dnn.Network { return networks.AlexNet(128) }, "alexnet128"),
		s.net(func() *dnn.Network { return networks.OverFeat(128) }, "overfeat128"),
		s.net(func() *dnn.Network { return networks.GoogLeNet(128) }, "googlenet128"),
		s.net(func() *dnn.Network { return networks.VGG16(64) }, "vgg16-64"),
		s.net(func() *dnn.Network { return networks.VGG16(128) }, "vgg16-128"),
		s.net(func() *dnn.Network { return networks.VGG16(256) }, "vgg16-256"),
	}
}

func (s *Suite) veryDeep() []*dnn.Network {
	return []*dnn.Network{
		s.net(func() *dnn.Network { return networks.VGGDeep(116, 32) }, "vgg116"),
		s.net(func() *dnn.Network { return networks.VGGDeep(216, 32) }, "vgg216"),
		s.net(func() *dnn.Network { return networks.VGGDeep(316, 32) }, "vgg316"),
		s.net(func() *dnn.Network { return networks.VGGDeep(416, 32) }, "vgg416"),
	}
}

func (s *Suite) all() []*dnn.Network { return append(s.conventional(), s.veryDeep()...) }

// Run simulates one configuration through the shared simulator cache.
func (s *Suite) Run(net *dnn.Network, cfg core.Config) *core.Result {
	r, err := s.sim.Run(context.Background(), net, cfg)
	if err != nil {
		panic(fmt.Sprintf("figures: %s %v: %v", net.Name, cfg.Policy, err))
	}
	return r
}

func (s *Suite) cfg(p core.Policy, a core.AlgoMode) core.Config {
	return core.Config{Spec: s.Spec, Policy: p, Algo: a}
}

// job pairs a network with a configuration for batch scheduling.
func job(n *dnn.Network, cfg core.Config) sweep.Job { return sweep.Job{Net: n, Cfg: cfg} }

// oracleBaseline is the paper's normalization target: the baseline with
// performance-optimal algorithms on a hypothetical GPU with enough memory.
func (s *Suite) oracleBaseline(net *dnn.Network) *core.Result {
	return s.Run(net, core.Config{Spec: s.Spec, Policy: core.Baseline, Algo: core.PerfOptimal, Oracle: true})
}

// fig1Jobs is the simulation set of Figures 1 and 4: the baseline on every
// studied network.
func (s *Suite) fig1Jobs() []sweep.Job {
	var js []sweep.Job
	for _, n := range s.all() {
		js = append(js, job(n, s.cfg(core.Baseline, core.PerfOptimal)))
	}
	return js
}

// Fig1 reproduces Figure 1: the baseline's network-wide memory allocation
// for all ten studied DNNs and the maximum fraction of it any single layer's
// computation actually uses.
func (s *Suite) Fig1() *report.Table {
	s.Prime(s.fig1Jobs())
	t := report.NewTable("Figure 1 — baseline memory allocation and maximum layer-wise usage",
		"network", "allocation (MB)", "max layer-wise usage", "trainable on 12GB")
	for _, n := range s.all() {
		r := s.Run(n, s.cfg(core.Baseline, core.PerfOptimal))
		frac := float64(r.MaxWorkingSet) / float64(r.TotalMaxUsage())
		t.AddRow(n.Name, report.FmtMiB(r.TotalMaxUsage()), report.FmtPct(frac), yesNo(r.Trainable))
	}
	t.AddNote("paper: 6 of 10 DNNs (14-67 GB) exceed the 12 GB Titan X; 53-79%% of memory unused at any time")
	return t
}

// Fig4 reproduces Figure 4: baseline memory usage broken down by function,
// and the share held by feature maps.
func (s *Suite) Fig4() *report.Table {
	s.Prime(s.fig1Jobs())
	t := report.NewTable("Figure 4 — baseline memory breakdown by functionality (MB)",
		"network", "weights", "w-grads", "feature maps", "gradient maps", "workspace", "other", "feature maps %")
	for _, n := range s.all() {
		r := s.Run(n, s.cfg(core.Baseline, core.PerfOptimal))
		k := r.PeakByKind
		var total int64
		for _, v := range k {
			total += v
		}
		fmFrac := float64(k[kindFM]) / float64(total)
		t.AddRow(n.Name,
			report.FmtMiB(k[kindW]), report.FmtMiB(k[kindWG]), report.FmtMiB(k[kindFM]),
			report.FmtMiB(k[kindGM]), report.FmtMiB(k[kindWS]), report.FmtMiB(k[kindOther]),
			report.FmtPct(fmFrac))
	}
	t.AddNote("paper: feature maps' share grows monotonically with depth")
	return t
}

// Fig5 reproduces Figure 5: per-layer memory usage of VGG-16 (256) during
// forward propagation — feature maps + workspace on the left axis, weights
// on the right.
func (s *Suite) fig5Jobs() []sweep.Job {
	n := s.net(func() *dnn.Network { return networks.VGG16(256) }, "vgg16-256")
	return []sweep.Job{job(n, core.Config{Spec: s.Spec, Policy: core.Baseline, Algo: core.PerfOptimal, Oracle: true})}
}

func (s *Suite) Fig5() *report.Table {
	s.Prime(s.fig5Jobs())
	n := s.net(func() *dnn.Network { return networks.VGG16(256) }, "vgg16-256")
	r := s.Run(n, core.Config{Spec: s.Spec, Policy: core.Baseline, Algo: core.PerfOptimal, Oracle: true})
	t := report.NewTable("Figure 5 — VGG-16 (256) per-layer forward memory usage",
		"layer", "fm+ws (MB)", "weights (MB)")
	for _, ls := range r.Layers {
		if ls.Kind != dnn.Conv && ls.Kind != dnn.FC {
			continue
		}
		fmws := ls.XBytes + ls.YBytes + ls.FwdWSBytes
		t.AddRow(ls.Name, report.FmtMiB(fmws), report.FmtMiB(ls.WeightBytes))
	}
	t.AddNote("intermediate data dominate feature extraction; weights concentrate in the classifier")
	return t
}

// Fig6 reproduces Figure 6: VGG-16's per-layer forward/backward latency and
// the reuse distance of each layer's input feature maps (batch 64,
// memory-optimal algorithms, matching the >1200 ms first-layer reuse
// distance quoted in Section III-A).
func (s *Suite) fig6Jobs() []sweep.Job {
	n := s.net(func() *dnn.Network { return networks.VGG16(64) }, "vgg16-64")
	return []sweep.Job{job(n, s.cfg(core.Baseline, core.MemOptimal))}
}

func (s *Suite) Fig6() *report.Table {
	s.Prime(s.fig6Jobs())
	n := s.net(func() *dnn.Network { return networks.VGG16(64) }, "vgg16-64")
	r := s.Run(n, s.cfg(core.Baseline, core.MemOptimal))
	t := report.NewTable("Figure 6 — VGG-16 (64) per-layer latency and reuse distance",
		"layer", "fwd (ms)", "bwd (ms)", "reuse distance (ms)")
	for _, ls := range r.Layers {
		if ls.Kind != dnn.Conv && ls.Kind != dnn.FC {
			continue
		}
		t.AddRow(ls.Name, report.FmtMs(int64(ls.FwdTime)), report.FmtMs(int64(ls.BwdTime)),
			report.FmtMs(int64(ls.ReuseDistance)))
	}
	t.AddNote("paper: first-layer reuse distance > 1200 ms for VGG-16 (64), > 60 ms for AlexNet")
	return t
}

// policyCell formats "max/avg" with the paper's asterisk for untrainable
// configurations.
func policyCell(r *core.Result) string {
	star := ""
	if !r.Trainable {
		star = "*"
	}
	return fmt.Sprintf("%s/%s%s", report.FmtMiB(r.MaxUsage), report.FmtMiB(r.AvgUsage), star)
}

// Fig11 reproduces Figure 11: maximum/average GPU memory usage of the vDNN
// policies and the baseline, (m) and (p) algorithm modes, across the six
// conventional networks. Asterisks mark configurations that cannot train.
// fig11Jobs is the full policy/mode cross product over the conventional
// networks (also the simulation set of the power study).
func (s *Suite) fig11Jobs() []sweep.Job {
	var js []sweep.Job
	for _, n := range s.conventional() {
		for _, pa := range []struct {
			p core.Policy
			a core.AlgoMode
		}{
			{core.VDNNAll, core.MemOptimal}, {core.VDNNAll, core.PerfOptimal},
			{core.VDNNConv, core.MemOptimal}, {core.VDNNConv, core.PerfOptimal},
			{core.VDNNDyn, 0},
			{core.Baseline, core.MemOptimal}, {core.Baseline, core.PerfOptimal},
		} {
			js = append(js, job(n, s.cfg(pa.p, pa.a)))
		}
	}
	return js
}

func (s *Suite) Fig11() *report.Table {
	s.Prime(s.fig11Jobs())
	t := report.NewTable("Figure 11 — GPU memory usage, max/avg MB (* = cannot train)",
		"network", "all(m)", "all(p)", "conv(m)", "conv(p)", "dyn", "base(m)", "base(p)", "savings(avg)")
	for _, n := range s.conventional() {
		allM := s.Run(n, s.cfg(core.VDNNAll, core.MemOptimal))
		allP := s.Run(n, s.cfg(core.VDNNAll, core.PerfOptimal))
		convM := s.Run(n, s.cfg(core.VDNNConv, core.MemOptimal))
		convP := s.Run(n, s.cfg(core.VDNNConv, core.PerfOptimal))
		dyn := s.Run(n, s.cfg(core.VDNNDyn, 0))
		baseM := s.Run(n, s.cfg(core.Baseline, core.MemOptimal))
		baseP := s.Run(n, s.cfg(core.Baseline, core.PerfOptimal))
		base := baseM
		if baseP.Trainable || !baseM.Trainable {
			base = baseP
		}
		savings := 1 - float64(allM.AvgUsage)/float64(base.AvgUsage)
		t.AddRow(n.Name, policyCell(allM), policyCell(allP), policyCell(convM), policyCell(convP),
			policyCell(dyn), policyCell(baseM), policyCell(baseP), report.FmtPct(savings))
	}
	t.AddNote("paper: vDNN-all(m) cuts average usage 73-98%%; baseline cannot train VGG-16 (256)")
	return t
}

// Fig12 reproduces Figure 12: the per-iteration offload traffic (equals the
// pinned host allocation) under vDNN-all and vDNN-conv.
func (s *Suite) fig12Jobs() []sweep.Job {
	var js []sweep.Job
	for _, n := range s.conventional() {
		js = append(js, job(n, s.cfg(core.VDNNAll, core.MemOptimal)),
			job(n, s.cfg(core.VDNNConv, core.MemOptimal)))
	}
	return js
}

func (s *Suite) Fig12() *report.Table {
	s.Prime(s.fig12Jobs())
	t := report.NewTable("Figure 12 — offloaded memory per iteration (MB)",
		"network", "vDNN-all", "vDNN-conv")
	for _, n := range s.conventional() {
		all := s.Run(n, s.cfg(core.VDNNAll, core.MemOptimal))
		conv := s.Run(n, s.cfg(core.VDNNConv, core.MemOptimal))
		t.AddRow(n.Name, report.FmtMiB(all.OffloadBytes), report.FmtMiB(conv.OffloadBytes))
	}
	t.AddNote("paper: up to ~15-16 GB offloaded for VGG-16 (256)")
	return t
}

// Fig13 reproduces Figure 13: the maximum DRAM bandwidth utilization of each
// VGG-16 CONV layer's forward and backward kernels under the baseline.
func (s *Suite) fig13Jobs() []sweep.Job {
	n := s.net(func() *dnn.Network { return networks.VGG16(128) }, "vgg16-128")
	return []sweep.Job{job(n, s.cfg(core.Baseline, core.MemOptimal))}
}

func (s *Suite) Fig13() *report.Table {
	s.Prime(s.fig13Jobs())
	n := s.net(func() *dnn.Network { return networks.VGG16(128) }, "vgg16-128")
	r := s.Run(n, s.cfg(core.Baseline, core.MemOptimal))
	t := report.NewTable("Figure 13 — VGG-16 (128) max DRAM bandwidth utilization (GB/s)",
		"layer", "fwd", "bwd", "of peak")
	peak := s.Spec.DRAMBps / 1e9
	var maxBW float64
	for _, ls := range r.Layers {
		if ls.Kind != dnn.Conv && ls.Kind != dnn.FC {
			continue
		}
		f, b := ls.FwdBW/1e9, ls.BwdBW/1e9
		if f > maxBW {
			maxBW = f
		}
		if b > maxBW {
			maxBW = b
		}
		t.AddRow(ls.Name, fmt.Sprintf("%.0f", f), fmt.Sprintf("%.0f", b),
			report.FmtPct(maxFloat(f, b)/peak))
	}
	t.AddNote("peak %.0f GB/s; headroom for the <= 16 GB/s PCIe traffic everywhere (worst case %.0f%%)",
		peak, maxBW/peak*100)
	return t
}

// Fig14 reproduces Figure 14: performance normalized to the (oracular)
// baseline for every policy and algorithm mode.
// fig14Jobs lists, per conventional network, the oracle and real run of
// every policy/mode pair; the baseline(p) oracle doubles as the
// normalization target.
func (s *Suite) fig14Jobs() []sweep.Job {
	var js []sweep.Job
	for _, n := range s.conventional() {
		for _, pa := range []struct {
			p core.Policy
			a core.AlgoMode
		}{
			{core.VDNNAll, core.MemOptimal}, {core.VDNNAll, core.PerfOptimal},
			{core.VDNNConv, core.MemOptimal}, {core.VDNNConv, core.PerfOptimal},
			{core.Baseline, core.MemOptimal}, {core.Baseline, core.PerfOptimal},
		} {
			js = append(js, job(n, core.Config{Spec: s.Spec, Policy: pa.p, Algo: pa.a, Oracle: true}),
				job(n, s.cfg(pa.p, pa.a)))
		}
		js = append(js, job(n, s.cfg(core.VDNNDyn, 0)))
	}
	return js
}

func (s *Suite) Fig14() *report.Table {
	s.Prime(s.fig14Jobs())
	t := report.NewTable("Figure 14 — performance normalized to baseline (feature extraction)",
		"network", "all(m)", "all(p)", "conv(m)", "conv(p)", "dyn", "base(m)", "base(p)")
	for _, n := range s.conventional() {
		oracle := s.oracleBaseline(n)
		norm := func(p core.Policy, a core.AlgoMode) string {
			r := s.Run(n, core.Config{Spec: s.Spec, Policy: p, Algo: a, Oracle: true})
			v := float64(oracle.FETime) / float64(r.FETime)
			real := s.Run(n, s.cfg(p, a))
			star := ""
			if !real.Trainable {
				star = "*"
			}
			return fmt.Sprintf("%.2f%s", v, star)
		}
		dyn := s.Run(n, s.cfg(core.VDNNDyn, 0))
		t.AddRow(n.Name,
			norm(core.VDNNAll, core.MemOptimal), norm(core.VDNNAll, core.PerfOptimal),
			norm(core.VDNNConv, core.MemOptimal), norm(core.VDNNConv, core.PerfOptimal),
			fmt.Sprintf("%.2f", float64(oracle.FETime)/float64(dyn.FETime)),
			norm(core.Baseline, core.MemOptimal), norm(core.Baseline, core.PerfOptimal))
	}
	t.AddNote("paper: static (m) policies lose ~55-58%%; vDNN-dyn averages ~97%% of baseline (82%% worst case)")
	return t
}

// Fig15 reproduces Figure 15: GPU- and CPU-side memory of vDNN-dyn against
// the baseline's (infeasible) requirement for the very deep networks.
func (s *Suite) fig15Jobs() []sweep.Job {
	var js []sweep.Job
	for _, n := range s.veryDeep() {
		js = append(js, job(n, s.cfg(core.VDNNDyn, 0)),
			job(n, s.cfg(core.Baseline, core.PerfOptimal)),
			job(n, core.Config{Spec: s.Spec, Policy: core.Baseline, Algo: core.PerfOptimal, Oracle: true}))
	}
	return js
}

func (s *Suite) Fig15() *report.Table {
	s.Prime(s.fig15Jobs())
	t := report.NewTable("Figure 15 — very deep networks (batch 32): memory placement (MB)",
		"network", "dyn GPU-side", "dyn CPU-side", "CPU share", "base requirement", "dyn perf vs oracle")
	for _, n := range s.veryDeep() {
		dyn := s.Run(n, s.cfg(core.VDNNDyn, 0))
		base := s.Run(n, s.cfg(core.Baseline, core.PerfOptimal))
		oracle := s.oracleBaseline(n)
		cpuShare := float64(dyn.HostPinnedPeak) / float64(dyn.HostPinnedPeak+dyn.MaxUsage)
		t.AddRow(n.Name,
			report.FmtMiB(dyn.MaxUsage), report.FmtMiB(dyn.HostPinnedPeak), report.FmtPct(cpuShare),
			report.FmtMiB(base.TotalMaxUsage()),
			fmt.Sprintf("%.2f", float64(oracle.FETime)/float64(dyn.FETime)))
	}
	t.AddNote("paper: baseline grows 14x to 67.1 GB; vDNN keeps 81-92%% of allocations in host memory")
	return t
}

// Power reproduces the Section V-D study: average and maximum board power of
// vDNN-dyn against the baseline. VGG-16 (256) is excluded as in the paper
// (the baseline cannot run it at all).
func (s *Suite) powerJobs() []sweep.Job {
	var js []sweep.Job
	for _, n := range s.conventional() {
		js = append(js, job(n, s.cfg(core.Baseline, core.PerfOptimal)),
			job(n, s.cfg(core.Baseline, core.MemOptimal)),
			job(n, s.cfg(core.VDNNDyn, 0)))
	}
	return js
}

func (s *Suite) Power() *report.Table {
	s.Prime(s.powerJobs())
	t := report.NewTable("Section V-D — GPU power, vDNN-dyn vs baseline (W)",
		"network", "base avg", "dyn avg", "base max", "dyn max", "max overhead")
	for _, n := range s.conventional() {
		base := s.Run(n, s.cfg(core.Baseline, core.PerfOptimal))
		if !base.Trainable {
			base = s.Run(n, s.cfg(core.Baseline, core.MemOptimal))
		}
		if !base.Trainable {
			continue // VGG-16 (256): no baseline to compare against
		}
		dyn := s.Run(n, s.cfg(core.VDNNDyn, 0))
		over := dyn.Power.MaxW/base.Power.MaxW - 1
		t.AddRow(n.Name,
			fmt.Sprintf("%.0f", base.Power.AvgW), fmt.Sprintf("%.0f", dyn.Power.AvgW),
			fmt.Sprintf("%.0f", base.Power.MaxW), fmt.Sprintf("%.0f", dyn.Power.MaxW),
			report.FmtPct(over))
	}
	t.AddNote("paper: 1-7%% maximum power overhead, negligible average change")
	return t
}

func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

func maxFloat(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// Short aliases for the allocation categories of Figure 4.
const (
	kindW     = memalloc.KindWeights
	kindWG    = memalloc.KindWeightGrad
	kindFM    = memalloc.KindFeatureMap
	kindGM    = memalloc.KindGradMap
	kindWS    = memalloc.KindWorkspace
	kindOther = memalloc.KindOther
)
