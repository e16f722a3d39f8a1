// Command perfbench is the repository benchmark: it drives the built
// vdnn-repro and vdnn-serve binaries through one workload, checks their
// outputs, and prints the workload's metrics as one JSON object on the last
// line of stdout.
//
//	bash perfbench/run.sh --workload cold --seed 1 --seconds 36 --trace 0
//
// Workloads (see perfbench/README.md for the rationale and predictions):
//
//	cold  every result is computed: vdnn-repro passes without a store, and a
//	      fresh vdnn-serve -store answering a stream of distinct keys.
//	warm  nothing is simulated: vdnn-repro passes against a store filled in
//	      set-up, and a fresh vdnn-serve answering a cached key set.
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the per-layer
// metrics of a separate in-process replay (see traced.go).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

// Metric is one reported number.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's final stdout line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Fixed per-workload settings; recorded in README.md and in the provenance
// line of every run.
const (
	// Open-loop rates: about half the closed-loop capacity measured at the
	// commit that defined the benchmark on a 2-core x86-64 box.
	warmRate = 2000.0 // requests/s
	coldRate = 300.0  // requests/s

	warmSetups = 3 // set-ups per run; setup_s is their median
	coldSetups = 25
)

// Shares of --seconds spent in each measured phase.
const (
	reproShare  = 0.40
	openShare   = 0.45
	closedShare = 0.15
)

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	bin      string // directory holding vdnn-repro and vdnn-serve
	work     string // working directory for stores and traces
}

func main() {
	var o options
	var traceFlag int
	var replay string
	flag.StringVar(&o.workload, "workload", "", "workload: cold or warm")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 36, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = report per-layer metrics from a traced replay")
	flag.StringVar(&o.bin, "bin", ".bench_build/bin", "directory of the built binaries")
	flag.StringVar(&o.work, "work", ".bench_build/work", "working directory for stores and traces")
	flag.StringVar(&replay, "replay", "", "internal: run the in-process replay and write its metrics to this file")
	spans := flag.Bool("spans", false, "internal: record spans during -replay")
	flag.Parse()
	o.trace = traceFlag == 1

	if replay != "" {
		if err := runReplay(o, *spans, replay); err != nil {
			fatal(err)
		}
		return
	}
	if o.workload != "cold" && o.workload != "warm" {
		fatal(fmt.Errorf("unknown workload %q (want cold or warm)", o.workload))
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		fatal(err)
	}
	run, err := os.MkdirTemp(o.work, o.workload+"-")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(run)
	o.work = run

	printProvenance(o)
	var out outcome
	if o.workload == "cold" {
		out, err = runCold(o)
	} else {
		out, err = runWarm(o)
	}
	res := out.Result
	if err == nil && o.trace {
		res, err = traced(o, out)
	}
	if err != nil {
		os.RemoveAll(run) // fatal exits without running deferred calls
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// metrics accumulates reported numbers.
type metrics map[string]Metric

func (m metrics) set(name string, v float64, unit string) {
	if math.IsInf(v, 1) {
		// A percentile reached a failed request: report the largest finite
		// value JSON can carry (the run is already marked incorrect).
		v = math.MaxFloat64
	}
	m[name] = Metric{Value: v, Unit: unit}
}

// percentile reports q of s in ms under name, or fails the run.
func (m metrics) percentile(name string, s *Samples, q float64) error {
	if s == nil {
		return fmt.Errorf("%s: no samples", name)
	}
	v, err := s.Percentile(q)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	m.set(name, v, "ms")
	fmt.Printf("%s = %.4f ms (n=%d)\n", name, v, s.Len())
	return nil
}

// printProvenance writes the run's provenance stamp as one JSON line.
func printProvenance(o options) {
	rate, conns := coldRate, runtime.NumCPU()
	if o.workload == "warm" {
		rate = warmRate
	}
	p := map[string]any{
		"source_sha256":        sourceHash(),
		"go":                   runtime.Version(),
		"nproc":                runtime.NumCPU(),
		"generator_gomaxprocs": runtime.GOMAXPROCS(0),
		"daemon_gomaxprocs":    gomaxprocsEnv(),
		"seed":                 o.seed,
		"seconds":              o.seconds,
		"open_loop_rate":       rate,
		"open_loop_conns":      conns,
		"closed_loop_clients":  conns,
		"memos_started_cold":   true,
		"workload":             o.workload,
		"trace":                o.trace,
		"time":                 time.Now().UTC().Format(time.RFC3339),
	}
	b, _ := json.Marshal(map[string]any{"provenance": p})
	fmt.Println(string(b))
}

// gomaxprocsEnv is the GOMAXPROCS child processes inherit (all cores when
// the variable is unset).
func gomaxprocsEnv() int {
	if n, err := strconv.Atoi(os.Getenv("GOMAXPROCS")); err == nil && n > 0 {
		return n
	}
	return runtime.NumCPU()
}

// sourceHash fingerprints the program under test: the SHA-256 of every Go
// source and go.mod outside the benchmark, in path order. The checkout the
// benchmark runs in need not be a git repository, so this stands in for the
// commit.
func sourceHash() string {
	var buf []byte
	_ = filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (path == "perfbench" || path == ".bench_build" || path == ".git") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (filepath.Ext(path) == ".go" || d.Name() == "go.mod") {
			b, err := os.ReadFile(path)
			if err == nil {
				buf = append(buf, path...)
				buf = append(buf, 0)
				buf = append(buf, sha(b)...)
			}
		}
		return nil
	})
	return sha(buf)
}
