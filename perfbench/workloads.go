package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"

	"vdnn"
	"vdnn/internal/serve"
)

// tally counts checked operations outside the load loops.
type tally struct{ attempted, failed int }

func (t *tally) op(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		fmt.Fprintln(os.Stderr, "perfbench: failed:", err)
	}
}

func (o options) reproBin() string { return filepath.Join(o.bin, "vdnn-repro") }
func (o options) serveBin() string { return filepath.Join(o.bin, "vdnn-serve") }
func (o options) phase(share float64) time.Duration {
	return time.Duration(share * o.seconds * float64(time.Second))
}

var storeLine = regexp.MustCompile(`store .*: (\d+) hits, (\d+) writes, (\d+) records`)

// cpuNow is the user + system time of this process plus its reaped
// children.
func cpuNow() time.Duration {
	var self, kids syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &self)
	_ = syscall.Getrusage(syscall.RUSAGE_CHILDREN, &kids)
	return time.Duration(self.Utime.Nano() + self.Stime.Nano() + kids.Utime.Nano() + kids.Stime.Nano())
}

// setupCost runs a set-up k times, each torn down (its processes reaped)
// before the next, and reports the median CPU seconds one set-up costs:
// the benchmark's own time plus every child it started. CPU time rather than
// wall time, because wall time on a shared virtual machine moves with the
// steal time of its neighbours.
func setupCost(m metrics, k int, setup func(i int) error) error {
	var costs []float64
	for i := 0; i < k; i++ {
		c0 := cpuNow()
		if err := setup(i); err != nil {
			return err
		}
		costs = append(costs, (cpuNow() - c0).Seconds())
	}
	m.set("setup_s", median(costs), "s")
	fmt.Printf("setup: %d set-ups, CPU s %v\n", k, costs)
	return nil
}

// info collects figures printed for information but not reported as
// metrics: chiefly wall-clock latencies and rates, whose run-to-run spread
// on a shared 2-vCPU virtual machine exceeds any useful bound.
type info map[string]float64

func (w info) print() {
	keys := make([]string, 0, len(w))
	for k := range w {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("info %s = %.4f\n", k, w[k])
	}
}

// reproPhase runs vdnn-repro passes (with extra flags) for d and reports
// the median CPU time and peak RSS of a pass. check, if set, vets each pass
// beyond the stdout hash.
func reproPhase(o options, t *tally, m metrics, w info, check func(pass) error, extra ...string) {
	var walls, cpus, rss []float64
	start := time.Now()
	for n := 0; n < 3 || time.Since(start) < o.phase(reproShare); n++ {
		p, err := runRepro(o.reproBin(), extra...)
		if err == nil {
			err = checkStdout(p)
		}
		if err == nil && check != nil {
			err = check(p)
		}
		t.op(err)
		if err != nil {
			// A failed pass sorts above every success.
			p.Wall, p.CPU, p.RSSMB = math.MaxInt64, math.MaxInt64, math.Inf(1)
		}
		walls = append(walls, p.Wall.Seconds())
		cpus = append(cpus, p.CPU.Seconds())
		rss = append(rss, p.RSSMB)
	}
	m.set("repro_cpu_s", median(cpus), "s")
	m.set("repro_rss_mb", median(rss), "MB")
	w["repro_s"] = median(walls)
	fmt.Printf("repro: %d passes, median CPU %.4f s, wall %.4f s, rss %.1f MB\n",
		len(walls), median(cpus), median(walls), median(rss))
}

// openCount is the open loop's request count: its share of --seconds at
// rate, but at least enough for a simulate p99 (1,000 simulations) and a
// plan p90 (100 plans); the loop then runs past its share.
func openCount(o options, rate float64, planEvery int) int {
	n := int(rate * o.phase(openShare).Seconds())
	return max(n, 1000*planEvery/(planEvery-1)+1, 100*planEvery)
}

// servePhase drives the daemon: an open loop of requests from open at rate,
// then a closed loop of simulate requests from closed with nproc clients.
// It reports the daemon's CPU per open-loop request and its median RSS
// through the open loop, records the informational figures, and returns the
// /v1/stats delta across both loops.
func servePhase(o options, d *Daemon, t *tally, m metrics, w info, rate float64, n int, open, closed Source, openCheck, closedCheck Check) (Stats, error) {
	conns := runtime.NumCPU()
	before, err := d.Stats()
	if err != nil {
		return Stats{}, err
	}
	u0, s0, err := d.cpuSplit()
	if err != nil {
		return Stats{}, err
	}
	cpu0 := u0 + s0
	// Resident set sampled through the fixed-size open loop; its median
	// is steadier than the peak, which moves with GC timing.
	stop, rss := make(chan struct{}), make(chan []float64)
	go func() { rss <- d.SampleRSS(50*time.Millisecond, stop) }()
	ol := OpenLoop(d.Base, conns, rate, n, open, openCheck)
	close(stop)
	samples := <-rss
	u1, s1, err := d.cpuSplit()
	if err != nil {
		return Stats{}, err
	}
	cpu1 := u1 + s1
	if len(samples) == 0 {
		return Stats{}, fmt.Errorf("no daemon RSS samples")
	}
	cl := ClosedLoop(d.Base, conns, o.phase(closedShare), closed, closedCheck)
	cpu2, err := d.CPU()
	if err != nil {
		return Stats{}, err
	}
	m.set("serve_rss_mb", median(samples), "MB")
	if hwm, err := d.HWM(); err == nil {
		w["serve_hwm_mb"] = hwm
	}
	after, err := d.Stats()
	if err != nil {
		return Stats{}, err
	}
	for _, r := range []LoadResult{ol, cl} {
		t.attempted += r.Attempted
		t.failed += r.Failed
		if r.FirstErr != nil {
			fmt.Fprintln(os.Stderr, "perfbench: failed:", r.FirstErr)
		}
	}
	perReq := func(c time.Duration, r LoadResult) float64 {
		return float64(c) / float64(time.Millisecond) / float64(r.Attempted)
	}
	m.set("serve_cpu_ms", perReq(cpu1-cpu0, ol), "ms")
	w["serve_user_cpu_ms"] = perReq(u1-u0, ol)
	w["serve_sys_cpu_ms"] = perReq(s1-s0, ol)
	// In the closed loop the daemon's CPU per request falls as throughput
	// rises (wake-ups amortise over more requests), so it moves with the
	// machine's steal time: informational only.
	w["simulate_cpu_ms"] = perReq(cpu2-cpu1, cl)

	for _, p := range []struct {
		name, kind string
		q          float64
	}{
		{"simulate_p50_ms", "simulate", 0.50},
		{"simulate_p99_ms", "simulate", 0.99},
		{"plan_p50_ms", "plan", 0.50},
		{"plan_p90_ms", "plan", 0.90},
	} {
		v, err := ol.Lat[p.kind].Percentile(p.q)
		if err != nil {
			return Stats{}, fmt.Errorf("%s: %w", p.name, err)
		}
		w[p.name] = v
		fmt.Printf("%s n=%d\n", p.name, ol.Lat[p.kind].Len())
	}
	lateP99, err := ol.Late.Percentile(0.99)
	if err != nil {
		return Stats{}, fmt.Errorf("generator lateness: %w", err)
	}
	w["gen_late_p99_ms"] = lateP99
	w["simulate_rps"] = float64(cl.Succeeded()) / cl.Elapsed.Seconds()
	fmt.Printf("open loop: %d requests at %.0f/s in %.2f s; closed loop: %d requests in %.2f s\n",
		ol.Attempted, rate, ol.Elapsed.Seconds(), cl.Attempted, cl.Elapsed.Seconds())
	delta := after.minus(before)
	delta.genLateMS = lateP99
	return delta, nil
}

// minus returns the counter deltas s - b.
func (s Stats) minus(b Stats) Stats {
	d := s
	d.Simulations -= b.Simulations
	d.Priced -= b.Priced
	d.Hits -= b.Hits
	d.Serve.Admitted -= b.Serve.Admitted
	d.Serve.RejectedOverload -= b.Serve.RejectedOverload
	if s.Store != nil && b.Store != nil {
		st := *s.Store
		st.Writes -= b.Store.Writes
		d.Store = &st
	}
	return d
}

// inProcess answers req on an in-process handler.
func inProcess(h http.Handler, req Request) ([]byte, int) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, req.Path, bytes.NewReader(req.Body)))
	return rec.Body.Bytes(), rec.Code
}

// coldSampleEvery is the mean spacing of the cold requests whose bodies are
// checked against an in-process server.
const coldSampleEvery = 25

func coldSampled(seed uint64, i int) bool {
	return rand.New(rand.NewPCG(seed, uint64(i)^0xC0FFEE)).IntN(coldSampleEvery) == 0
}

// outcome is a workload's checked result plus its /v1/stats delta.
type outcome struct {
	Result
	delta Stats
}

func runCold(o options) (outcome, error) {
	var t tally
	m, w := metrics{}, info{}
	t.op(checkParallelism(o.reproBin()))

	keys := NewColdKeys(o.seed)
	n := openCount(o, coldRate, coldPlanEvery)
	// Reference bodies of the sampled requests, from a fresh in-process
	// server: the daemon's answers must match them byte for byte.
	ref := map[int][]byte{}
	h := serve.New(vdnn.NewSimulator())
	for i := 0; i < n; i++ {
		if coldSampled(o.seed, i) {
			body, code := inProcess(h, keys.At(i))
			if code != http.StatusOK {
				return outcome{}, fmt.Errorf("in-process reference for %v: status %d: %s", keys.At(i), code, body)
			}
			ref[i] = body
		}
	}

	// Set-up: a fresh daemon with a fresh store, up to /readyz.
	start := func(i int) (*Daemon, error) {
		return StartDaemon(o.serveBin(), "-store", filepath.Join(o.work, "serve-store-"+strconv.Itoa(i)))
	}
	if err := setupCost(m, coldSetups, func(i int) error {
		d, err := start(i)
		if err == nil {
			d.Stop()
		}
		return err
	}); err != nil {
		return outcome{}, err
	}
	d, err := start(coldSetups)
	if err != nil {
		return outcome{}, err
	}
	defer d.Stop()

	reproPhase(o, &t, m, w, nil)

	check := func(i int, req Request, body []byte) error {
		if want, ok := ref[i]; ok && !bytes.Equal(body, want) {
			return fmt.Errorf("%v: body differs from the in-process server's", req)
		}
		return nil
	}
	delta, err := servePhase(o, d, &t, m, w, coldRate, n, keys.At, keys.SimAt, check, nil)
	if err != nil {
		return outcome{}, err
	}
	w.print()
	fmt.Printf("cold: checked %d sampled bodies; stats delta %+v\n", len(ref), delta)
	return outcome{Result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}, delta}, nil
}

// warmSetup fills a store with one vdnn-repro pass, starts a daemon and
// requests every key once, returning the daemon and the bodies it answered.
func warmSetup(o options, keys *WarmKeys, dir string) (*Daemon, map[string][]byte, error) {
	p, err := runRepro(o.reproBin(), "-store", dir)
	if err == nil {
		err = checkStdout(p)
	}
	if err != nil {
		return nil, nil, err
	}
	d, err := StartDaemon(o.serveBin())
	if err != nil {
		return nil, nil, err
	}
	c := client(1)
	defer c.CloseIdleConnections()
	bodies := map[string][]byte{}
	for _, req := range append(append([]Request(nil), keys.Sims...), keys.Plans...) {
		body, err := do(c, d.Base, req)
		if err != nil {
			d.Stop()
			return nil, nil, err
		}
		bodies[string(req.Body)] = body
	}
	return d, bodies, nil
}

func runWarm(o options) (outcome, error) {
	var t tally
	m, w := metrics{}, info{}
	n := openCount(o, warmRate, warmPlanEvery)
	keys := NewWarmKeys(o.seed, n)

	// Set-up: fill a store, start a daemon, warm its cache. Every set-up
	// must answer every key with the same body.
	var first map[string][]byte
	dir := func(i int) string { return filepath.Join(o.work, "repro-store-"+strconv.Itoa(i)) }
	if err := setupCost(m, warmSetups, func(i int) error {
		d, bodies, err := warmSetup(o, keys, dir(i))
		if err != nil {
			return err
		}
		d.Stop()
		if first == nil {
			first = bodies
		}
		for k, b := range bodies {
			if !bytes.Equal(b, first[k]) {
				t.op(fmt.Errorf("set-up %d: body of %s differs from set-up 0", i, k))
			}
		}
		return nil
	}); err != nil {
		return outcome{}, err
	}
	d, bodies, err := warmSetup(o, keys, dir(warmSetups))
	if err != nil {
		return outcome{}, err
	}
	defer d.Stop()

	jobs := -1
	reproPhase(o, &t, m, w, func(p pass) error {
		sm := storeLine.FindSubmatch(p.Stderr)
		if sm == nil {
			return fmt.Errorf("vdnn-repro -store: no store line on stderr")
		}
		if string(sm[2]) != "0" {
			return fmt.Errorf("warm vdnn-repro pass wrote %s records, want 0", sm[2])
		}
		hits, _ := strconv.Atoi(string(sm[1]))
		if jobs >= 0 && hits != jobs {
			return fmt.Errorf("warm vdnn-repro pass: %d store hits, previous pass %d", hits, jobs)
		}
		jobs = hits
		return nil
	}, "-store", dir(warmSetups))

	check := func(i int, req Request, body []byte) error {
		if !bytes.Equal(body, bodies[string(req.Body)]) {
			return fmt.Errorf("%v: body differs from the set-up body", req)
		}
		return nil
	}
	delta, err := servePhase(o, d, &t, m, w, warmRate, n, keys.At, keys.SimAt, check, check)
	if err != nil {
		return outcome{}, err
	}
	w.print()
	fmt.Printf("warm: repro store hits per pass %d; stats delta %+v\n", jobs, delta)
	if delta.Simulations != 0 {
		t.op(fmt.Errorf("warm serve phase: %d simulations, want 0", delta.Simulations))
	}
	return outcome{Result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}, delta}, nil
}
