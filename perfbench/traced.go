package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"vdnn"
	"vdnn/internal/core"
	"vdnn/internal/cudnnsim"
	"vdnn/internal/dnn"
	"vdnn/internal/figures"
	"vdnn/internal/gpu"
	"vdnn/internal/networks"
	"vdnn/internal/serve"
	"vdnn/internal/sim"
	"vdnn/internal/store"
	"vdnn/internal/sweep"
	"vdnn/internal/tensor"
)

// The traced run replays a workload's inputs through each layer's public
// functions in a fresh process, so the process-global memos start cold. The
// benchmark times its own calls; nothing inside the program is
// instrumented. Metric names say where memos were already warm.

// replayOutput is what a replay child hands back to the parent.
type replayOutput struct {
	Metrics   metrics `json:"metrics"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	WallS     float64 `json:"wall_s"`
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func medianDur(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}

func sumDur(ds []time.Duration) (s time.Duration) {
	for _, d := range ds {
		s += d
	}
	return s
}

// replayNets are the networks the traced run builds: the paper's six
// conventional configurations (the serve key sets) and its four very deep
// VGGs (Figure 15).
var replayNets = append(append([]config(nil), paperConfigs...),
	config{"vgg116", 32}, config{"vgg216", 32}, config{"vgg316", 32}, config{"vgg416", 32})

// jobKey identifies a job: its network instance and configuration.
func jobKey(j sweep.Job) string { return fmt.Sprintf("%p|%+v", j.Net, j.Cfg) }

// structureKey identifies the capacity-independent structure of a job.
func structureKey(j sweep.Job) string {
	cfg := j.Cfg
	cfg.Spec.MemBytes = 0
	cfg.Oracle = false
	return fmt.Sprintf("%p|%+v", j.Net, cfg)
}

func runReplay(o options, spansOn bool, out string) error {
	start := time.Now()
	tr := newTracer(spansOn)
	r := &replay{o: o, tr: tr, m: metrics{}, ctx: context.Background()}
	if err := r.repro(); err != nil {
		return err
	}
	if err := r.serve(); err != nil {
		return err
	}
	res := replayOutput{Metrics: r.m, Attempted: r.t.attempted, Failed: r.t.failed, WallS: time.Since(start).Seconds()}
	if spansOn {
		dir := filepath.Join(filepath.Dir(o.work), "traces")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		err = tr.writeChrome(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Printf("trace: %d spans written to %s\n", len(tr.spans), path)
		tr.writeSummary(os.Stdout)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	return os.WriteFile(out, b, 0o644)
}

type replay struct {
	o   options
	tr  *tracer
	m   metrics
	t   tally
	ctx context.Context

	jobs    []sweep.Job // distinct vdnn-repro jobs, in experiment order
	results []*core.Result
}

// repro replays the vdnn-repro inputs: all experiments' jobs.
func (r *replay) repro() error {
	tr, m := r.tr, r.m
	spec := gpu.TitanX()

	var suite *figures.Suite
	var exps []figures.Experiment
	var all []sweep.Job
	d := tr.do("figures.enumerate", func() {
		suite = figures.NewSuiteSim(spec, vdnn.NewSimulator())
		exps = suite.Experiments()
		for _, e := range exps {
			all = append(all, e.Jobs()...)
		}
	})
	m.set("figures.enumerate_ms", ms(d), "ms")
	seen := map[string]bool{}
	for _, j := range all {
		if k := jobKey(j); !seen[k] {
			seen[k] = true
			r.jobs = append(r.jobs, j)
		}
	}

	// networks: one build per distinct (network, batch).
	var builds []time.Duration
	for _, c := range replayNets {
		var err error
		builds = append(builds, tr.do("networks.ByName", func() { _, err = networks.ByName(c.Network, c.Batch) }))
		if err != nil {
			return err
		}
	}
	m.set("networks.build_ms", ms(sumDur(builds)), "ms")
	m.set("networks.builds", float64(len(builds)), "count")

	// cudnnsim: every distinct conv geometry x direction of the jobs'
	// networks, first call (memo cold) then a repeat (memo hit).
	type gd struct {
		g   cudnnsim.ConvGeom
		dir cudnnsim.Direction
	}
	var geoms []gd
	gseen := map[gd]bool{}
	nseen := map[*dnn.Network]bool{}
	for _, j := range r.jobs {
		if nseen[j.Net] {
			continue
		}
		nseen[j.Net] = true
		for _, l := range j.Net.Layers {
			if l.Kind != dnn.Conv {
				continue
			}
			for _, dir := range []cudnnsim.Direction{cudnnsim.Fwd, cudnnsim.BwdData, cudnnsim.BwdFilter} {
				k := gd{l.ConvGeom(tensor.Float32), dir}
				if !gseen[k] {
					gseen[k] = true
					geoms = append(geoms, k)
				}
			}
		}
	}
	var cold []time.Duration
	for _, g := range geoms {
		cold = append(cold, tr.do("cudnnsim.find", func() { cudnnsim.FindConvAlgorithms(spec, g.g, g.dir, -1) }))
	}
	const hitReps = 20
	d = tr.do("cudnnsim.find_hits", func() {
		for i := 0; i < hitReps; i++ {
			for _, g := range geoms {
				cudnnsim.FindConvAlgorithms(spec, g.g, g.dir, -1)
			}
		}
	})
	m.set("cudnnsim.geoms", float64(len(geoms)), "count")
	m.set("cudnnsim.find_cold_us", us(medianDur(cold)), "us")
	m.set("cudnnsim.find_hit_ns", float64(d)/float64(hitReps*len(geoms)), "ns")

	if err := r.core(); err != nil {
		return err
	}
	if err := r.structures(); err != nil {
		return err
	}
	if err := r.timeline(); err != nil {
		return err
	}
	if err := r.sweeps(); err != nil {
		return err
	}
	if err := r.store(); err != nil {
		return err
	}

	// figures: format every table from a primed suite; the text must be
	// vdnn-repro's, byte for byte.
	suite.Prime(all)
	var buf bytes.Buffer
	d = tr.do("figures.gen", func() {
		for _, e := range exps {
			e.Gen().Render(&buf)
			buf.WriteByte('\n')
		}
	})
	m.set("figures.gen_ms", ms(d), "ms")
	r.t.op(checkStdout(pass{Stdout: buf.Bytes()}))
	return nil
}

// core runs every distinct job once through core.RunContext on this
// goroutine, with the cudnnsim find memo already warm.
func (r *replay) core() error {
	tr, m := r.tr, r.m
	var runs, dyn, multi []time.Duration
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	r.results = make([]*core.Result, len(r.jobs))
	for i, j := range r.jobs {
		var err error
		d := tr.do("core.run", func() { r.results[i], err = core.RunContext(r.ctx, j.Net, j.Cfg) })
		if err != nil {
			return fmt.Errorf("core.RunContext %s: %w", j.Net.Name, err)
		}
		runs = append(runs, d)
		if j.Cfg.Policy == core.VDNNDyn && j.Cfg.Custom == nil {
			dyn = append(dyn, d)
		}
		if j.Cfg.Devices > 1 || j.Cfg.Stages > 1 {
			multi = append(multi, d)
		}
	}
	runtime.ReadMemStats(&ms1)
	sorted := append([]time.Duration(nil), runs...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
	m.set("core.runs", float64(len(runs)), "count")
	m.set("core.run_ms", ms(sumDur(runs)), "ms")
	m.set("core.run_p50_ms", ms(medianDur(runs)), "ms")
	m.set("core.run_max_ms", ms(sorted[len(sorted)-1]), "ms")
	m.set("core.run_dyn_ms", ms(sumDur(dyn)), "ms")
	m.set("core.run_multi_ms", ms(sumDur(multi)), "ms")
	m.set("core.alloc_mb", float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20), "MB")
	m.set("core.allocs", float64(ms1.Mallocs-ms0.Mallocs), "count")
	m.set("runtime.gc_cycles", float64(ms1.NumGC-ms0.NumGC), "count")
	m.set("runtime.gc_pause_ms", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6, "ms")
	return nil
}

// structures builds each structure-shaped configuration's capacity-free
// structure once and prices every job of that shape by trace replay.
func (r *replay) structures() error {
	tr, m := r.tr, r.m
	built := map[string]*core.Structure{}
	var build, price []time.Duration
	var ops int
	for _, j := range r.jobs {
		if !core.StructureShaped(j.Cfg) || core.ValidateRun(j.Net, j.Cfg) != nil {
			continue
		}
		k := structureKey(j)
		s, ok := built[k]
		if !ok {
			var err error
			build = append(build, tr.do("core.build_structure", func() { s, err = core.BuildStructure(r.ctx, j.Net, j.Cfg) }))
			if err != nil {
				return fmt.Errorf("core.BuildStructure %s: %w", j.Net.Name, err)
			}
			built[k] = s
		}
		var priced bool
		var err error
		d := tr.do("core.price", func() { _, priced, err = s.Price(r.ctx, j.Net, j.Cfg) })
		if err != nil {
			return fmt.Errorf("Structure.Price %s: %w", j.Net.Name, err)
		}
		if priced {
			price = append(price, d)
			ops += s.TraceLen()
		}
	}
	traceOps := 0
	for _, s := range built {
		traceOps += s.TraceLen()
	}
	m.set("core.structures", float64(len(built)), "count")
	m.set("core.structure_build_ms", ms(sumDur(build)), "ms")
	m.set("core.price_us", us(sumDur(price))/float64(max(len(price), 1)), "us")
	m.set("memalloc.trace_ops", float64(traceOps), "count")
	m.set("memalloc.replay_ns_per_op", float64(sumDur(price))/float64(max(ops, 1)), "ns")
	return nil
}

// opKinds maps a captured op's kind back to the simulator's.
var opKinds = func() map[string]sim.OpKind {
	k := map[string]sim.OpKind{}
	for o := sim.OpKernel; o <= sim.OpCopyStage; o++ {
		k[o.String()] = o
	}
	return k
}()

// timeline reissues the largest single-device job's captured schedule on a
// fresh device and measures its power and energy over the result window.
func (r *replay) timeline() error {
	tr, m := r.tr, r.m
	big := -1
	for i, j := range r.jobs {
		res := r.results[i]
		if j.Cfg.Devices > 1 || j.Cfg.Stages > 1 || j.Cfg.Custom != nil || !res.Trainable {
			continue
		}
		if big < 0 || res.IterTime > r.results[big].IterTime {
			big = i
		}
	}
	if big < 0 {
		return fmt.Errorf("no single-device trainable job")
	}
	j := r.jobs[big]
	cfg := j.Cfg
	cfg.CaptureSchedule = true
	res, err := core.RunContext(r.ctx, j.Net, cfg)
	if err != nil {
		return err
	}
	sched := res.Schedule
	dev := gpu.NewDevice(cfg.Spec)
	engines := map[string]*sim.Engine{"compute": dev.Compute, "copyD2H": dev.DMADown, "copyH2D": dev.DMAUp}
	var issueErr error
	d := tr.do("sim.issue", func() {
		for _, op := range sched {
			e, ok := engines[op.Engine]
			if !ok {
				issueErr = fmt.Errorf("schedule op on unknown engine %q", op.Engine)
				return
			}
			s := dev.StreamCompute
			if e != dev.Compute {
				s = dev.StreamMemory
			}
			dev.TL.Issue(&sim.Op{Label: op.Label, Kind: opKinds[op.Kind], DurationT: op.End - op.Start}, s, e)
		}
	})
	if issueErr != nil {
		return issueErr
	}
	lo, hi := dev.TL.Span()
	var p gpu.PowerStats
	pd := tr.do("gpu.power", func() { p, _ = dev.MeasurePowerEnergy(lo, hi) })
	if len(sched) == 0 || p.AvgW <= 0 {
		return fmt.Errorf("empty schedule or power for %s", j.Net.Name)
	}
	m.set("sim.ops", float64(len(sched)), "count")
	m.set("sim.issue_ns", float64(d)/float64(len(sched)), "ns")
	m.set("gpu.power_us", us(pd), "us")
	return nil
}

// sweeps runs the jobs through fresh sweep engines at equal memo warmth:
// one worker, nproc workers, and one worker with differential pricing off.
func (r *replay) sweeps() error {
	tr, m := r.tr, r.m
	run := func(name string, e *sweep.Engine) (time.Duration, error) {
		var err error
		d := tr.do(name, func() { _, err = e.RunAll(r.ctx, r.jobs) })
		return d, err
	}
	seqE := sweep.NewEngine(1)
	seq, err := run("sweep.runall_seq", seqE)
	if err != nil {
		return err
	}
	par, err := run("sweep.runall_par", sweep.NewEngine(runtime.NumCPU()))
	if err != nil {
		return err
	}
	fullE := sweep.NewEngine(1)
	fullE.SetFullSimulation(true)
	full, err := run("sweep.full_seq", fullE)
	if err != nil {
		return err
	}
	st := seqE.Stats()
	m.set("sweep.runall_seq_ms", ms(seq), "ms")
	m.set("sweep.runall_par_ms", ms(par), "ms")
	m.set("sweep.full_seq_ms", ms(full), "ms")
	m.set("sweep.diff_x", float64(full)/float64(seq), "x")
	m.set("sweep.par_x", float64(seq)/float64(par), "x")
	m.set("sweep.simulations", float64(st.Simulations), "count")
	m.set("sweep.structures", float64(st.Structures), "count")
	m.set("sweep.priced", float64(st.Priced), "count")
	m.set("sweep.hits", float64(st.Hits), "count")
	m.set("sweep.coalesced", float64(st.Coalesced), "count")
	m.set("sweep.priced_ratio", float64(st.Priced)/float64(st.Simulations), "ratio")
	return nil
}

// store saves every job's result to a fresh store, reopens it, and loads
// every job back: each load must hit.
func (r *replay) store() error {
	tr, m := r.tr, r.m
	dir := filepath.Join(r.o.work, "replay-store")
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	var saves []time.Duration
	keyed := 0
	for i, j := range r.jobs {
		if _, ok := store.Key(j.Net, j.Cfg); !ok {
			continue
		}
		keyed++
		saves = append(saves, tr.do("store.save", func() { st.Save(j.Net, j.Cfg, r.results[i]) }))
	}
	m.set("store.save_us", us(medianDur(saves)), "us")
	m.set("store.writes", float64(st.Stats().Writes), "count")

	d := tr.do("store.open", func() { st, err = store.Open(dir) })
	if err != nil {
		return err
	}
	m.set("store.open_ms", ms(d), "ms")
	m.set("store.records", float64(st.Stats().Records), "count")
	var keys, loads []time.Duration
	hits := 0
	for _, j := range r.jobs {
		var ok bool
		keys = append(keys, tr.do("store.key", func() { _, ok = store.Key(j.Net, j.Cfg) }))
		if !ok {
			continue
		}
		var hit bool
		loads = append(loads, tr.do("store.load", func() { _, hit = st.Load(j.Net, j.Cfg) }))
		if hit {
			hits++
		}
	}
	if hits != keyed {
		r.t.op(fmt.Errorf("store: %d of %d loads hit", hits, keyed))
	} else {
		r.t.op(nil)
	}
	m.set("store.key_us", us(medianDur(keys)), "us")
	m.set("store.load_us", us(medianDur(loads)), "us")
	var bytes int64
	files, _ := filepath.Glob(filepath.Join(dir, "*.rec"))
	for _, f := range files {
		if fi, err := os.Stat(f); err == nil {
			bytes += fi.Size()
		}
	}
	m.set("store.record_kb", float64(bytes)/1024/float64(max(len(files), 1)), "KB")
	return nil
}

// serve replays the workload's HTTP inputs in process: plans through
// Simulator.Plan, simulations through serve.Server.ServeHTTP.
func (r *replay) serve() error {
	tr, m := r.tr, r.m
	var sims, plans []Request
	if r.o.workload == "warm" {
		keys := NewWarmKeys(r.o.seed, 1)
		sims, plans = keys.Sims, keys.Plans
	} else {
		keys := NewColdKeys(r.o.seed)
		for i := 0; len(plans) < 24; i++ {
			if req := keys.At(i); req.Kind == "plan" {
				plans = append(plans, req)
			} else {
				sims = append(sims, req)
			}
		}
	}

	// plan: one search per plan request, on a fresh simulator.
	psim := vdnn.NewSimulator()
	var searches []time.Duration
	var counters vdnn.PlanCounters
	for _, req := range plans {
		var b planBody
		if err := json.Unmarshal(req.Body, &b); err != nil {
			return err
		}
		preq := vdnn.PlanRequest{
			Network: b.Network, Batch: b.Batch, Spec: gpu.TitanX(),
			MemCapBytes: int64(b.MemCapGB * float64(1<<30)), MaxDevices: b.MaxDevices,
		}
		var p *vdnn.PlanResult
		var err error
		searches = append(searches, tr.do("plan.search", func() { p, err = psim.Plan(r.ctx, preq) }))
		if err != nil && p == nil {
			return fmt.Errorf("plan %s: %w", req.Body, err)
		}
		counters = counters.Add(p.Counters)
	}
	m.set("plan.search_ms", ms(medianDur(searches)), "ms")
	m.set("plan.evaluated", float64(counters.Evaluated), "count")
	m.set("plan.pruned", float64(counters.Pruned), "count")
	m.set("plan.space", float64(counters.Space), "count")

	// serve: the handler on an in-memory recorder. Warm requests are hits
	// (each key answered once first); cold requests are distinct misses
	// written through to a store.
	var h *serve.Server
	if r.o.workload == "warm" {
		h = serve.New(vdnn.NewSimulator())
		for _, req := range sims {
			inProcess(h, req)
		}
	} else {
		st, err := vdnn.OpenStore(filepath.Join(r.o.work, "replay-serve-store"))
		if err != nil {
			return err
		}
		h = serve.New(vdnn.NewSimulator(vdnn.WithStore(st)), serve.WithStore(st))
	}
	reps := 1
	if r.o.workload == "warm" {
		reps = 10
	}
	var handler, encode []time.Duration
	var respBytes int
	for rep := 0; rep < reps; rep++ {
		for _, req := range sims {
			var body []byte
			var code int
			handler = append(handler, tr.do("serve.handler", func() { body, code = inProcess(h, req) }))
			if code != http.StatusOK {
				r.t.op(fmt.Errorf("in-process %v: status %d", req, code))
				continue
			}
			var resp serve.SimResponse
			if err := json.Unmarshal(body, &resp); err != nil {
				return err
			}
			var err error
			encode = append(encode, tr.do("serve.encode", func() { _, err = json.Marshal(resp) }))
			if err != nil {
				return err
			}
			respBytes += len(body)
		}
	}
	m.set("serve.handler_us", us(medianDur(handler)), "us")
	m.set("serve.encode_us", us(medianDur(encode)), "us")
	m.set("serve.response_bytes", float64(respBytes)/float64(max(len(encode), 1)), "bytes")

	// sweep: a cached key through Simulator.Run.
	hsim := vdnn.NewSimulator()
	net, err := hsim.Network("vgg16", 128)
	if err != nil {
		return err
	}
	cfg := vdnn.Config{Spec: gpu.TitanX(), Policy: vdnn.VDNNAll, Algo: vdnn.PerfOptimal}
	if _, err := hsim.Run(r.ctx, net, cfg); err != nil {
		return err
	}
	var hits []time.Duration
	for i := 0; i < 200; i++ {
		hits = append(hits, tr.do("sweep.hit", func() { _, err = hsim.Run(r.ctx, net, cfg) }))
	}
	if err != nil {
		return err
	}
	m.set("sweep.hit_us", us(medianDur(hits)), "us")
	return nil
}

// replayRun runs the replay in a fresh child process and returns its output.
func replayRun(o options, spans bool) (replayOutput, error) {
	var out replayOutput
	file := filepath.Join(o.work, "replay-"+strconv.FormatBool(spans)+".json")
	cmd := exec.Command(os.Args[0], "-replay", file, "-spans="+strconv.FormatBool(spans),
		"-workload", o.workload, "-seed", strconv.FormatUint(o.seed, 10), "-work", o.work)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	cmd.SysProcAttr = dieWithParent()
	if err := cmd.Run(); err != nil {
		return out, fmt.Errorf("replay (spans=%v): %w", spans, err)
	}
	b, err := os.ReadFile(file)
	if err != nil {
		return out, err
	}
	return out, json.Unmarshal(b, &out)
}

// traced produces the per-layer report: the e2e run's /v1/stats deltas,
// then the replay untraced and traced, each in a fresh process.
func traced(o options, e2e outcome) (Result, error) {
	untraced, err := replayRun(o, false)
	if err != nil {
		return Result{}, err
	}
	tr, err := replayRun(o, true)
	if err != nil {
		return Result{}, err
	}
	m := tr.Metrics
	d := e2e.delta
	m.set("stats.simulations", float64(d.Simulations), "count")
	m.set("stats.priced", float64(d.Priced), "count")
	m.set("stats.hits", float64(d.Hits), "count")
	writes := 0.0
	if d.Store != nil {
		writes = float64(d.Store.Writes)
	}
	m.set("stats.store_writes", writes, "count")
	m.set("serve.admitted", float64(d.Serve.Admitted), "count")
	m.set("serve.rejected_overload", float64(d.Serve.RejectedOverload), "count")
	m.set("gen.late_ms", d.genLateMS, "ms")
	m.set("replay.untraced_s", untraced.WallS, "s")
	m.set("replay.traced_s", tr.WallS, "s")
	fmt.Printf("replay wall: untraced %.3f s, traced %.3f s\n", untraced.WallS, tr.WallS)
	att := e2e.Attempted + untraced.Attempted + tr.Attempted
	failed := e2e.Failed + untraced.Failed + tr.Failed
	return Result{Correct: e2e.Correct && failed == 0, Attempted: att, Failed: failed, Metrics: m}, nil
}
