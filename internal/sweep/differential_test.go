package sweep

import (
	"context"
	"math/rand"
	"reflect"
	"regexp"
	"sync"
	"testing"

	"vdnn/internal/compress"
	"vdnn/internal/core"
	"vdnn/internal/gpu"
	"vdnn/internal/networks"
)

// capacitySweepJobs is a capacity ablation crossed with the policy/algorithm
// grid — the shape of every figure sweep, and the differential path's best
// case: each (policy, algo) column shares one structure across all
// capacities. The grid deliberately includes ineligible shapes (vDNN-dyn,
// greedy algorithm selection) and capacities on both sides of the
// trainability threshold, so full-path fallback and the untrainable pricing
// path are exercised alongside the happy path. The MiB rungs sit between
// AlexNet(128)'s thresholds, so untrainable points fail in every place a run
// can (see failPlaces): during setup, allocating the input batch, in a
// forward pass and in a backward pass. Two small-batch points add a failing
// weight prefetch and a failure in the second iteration.
func capacitySweepJobs(t testing.TB) []Job {
	t.Helper()
	net := networks.AlexNet(128)
	zvc := compress.Config{Codec: compress.CodecZVC}
	var jobs []Job
	for _, memMiB := range []int64{470, 500, 600, 700, 760, 930, 970, 1 << 10, 2 << 10, 4 << 10, 6 << 10, 8 << 10, 12 << 10} {
		spec := gpu.TitanX().WithMemory(memMiB << 20)
		for _, cfg := range []core.Config{
			{Policy: core.Baseline, Algo: core.MemOptimal},
			{Policy: core.Baseline, Algo: core.PerfOptimal},
			{Policy: core.VDNNAll, Algo: core.MemOptimal},
			{Policy: core.VDNNConv, Algo: core.PerfOptimal},
			{Policy: core.VDNNAll, Algo: core.GreedyAlgo}, // ineligible: consults free space
			{Policy: core.VDNNDyn},                        // ineligible: profiling cascade
			{Policy: core.VDNNAll, Algo: core.MemOptimal, OffloadWeights: true},
			{Policy: core.VDNNConv, Algo: core.PerfOptimal, Compression: zvc},
			{Policy: core.Baseline, Algo: core.PerfOptimal, Debug: true},
			{Policy: core.VDNNAll, Algo: core.PerfOptimal, Debug: true},
			// Oracle points share the same structures as their real twins.
			{Policy: core.VDNNAll, Algo: core.MemOptimal, Oracle: true},
		} {
			cfg.Spec = spec
			jobs = append(jobs, Job{Net: net, Cfg: cfg})
		}
	}
	return append(jobs,
		Job{Net: networks.AlexNet(1), Cfg: core.Config{Spec: gpu.TitanX().WithMemory(490_500_000),
			Policy: core.VDNNAll, Algo: core.MemOptimal, OffloadWeights: true, Debug: true}},
		Job{Net: networks.AlexNet(8), Cfg: core.Config{Spec: gpu.TitanX().WithMemory(510_000_000),
			Policy: core.VDNNConv, Algo: core.MemOptimal, OffloadWeights: true, Prefetch: core.PrefetchNone}},
	)
}

// failPlaces names the places in a run an allocation can fail, by the shape
// of the failure chain.
var failPlaces = map[string]*regexp.Regexp{
	"setup":           regexp.MustCompile(`^allocating `),
	"input batch":     regexp.MustCompile(`^iteration \d+: allocating input: `),
	"forward pass":    regexp.MustCompile(`^iteration \d+: fwd \S+: allocating `),
	"backward pass":   regexp.MustCompile(`^iteration \d+: bwd \S+: allocating `),
	"weight prefetch": regexp.MustCompile(`^iteration \d+: bwd relu\d+: allocating conv\d+\.W: `), // one layer early: JIT
	"iteration 1":     regexp.MustCompile(`^iteration 1: `),
}

// TestDifferentialEquivalence is the tentpole guarantee: every result the
// engine produces through the structure/pricing split is reflect.DeepEqual
// to a plain core.Run of the same job — trainable points, untrainable points
// (exact FailReason chain), oracle points, and ineligible shapes alike.
func TestDifferentialEquivalence(t *testing.T) {
	jobs := capacitySweepJobs(t)

	want := make([]*core.Result, len(jobs))
	for i, j := range jobs {
		r, err := core.Run(j.Net, j.Cfg)
		if err != nil {
			t.Fatalf("sequential job %d: %v", i, err)
		}
		want[i] = r
	}

	eng := NewEngine(4)
	got, err := eng.RunAll(context.Background(), jobs)
	if err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	var trainable, untrainable int
	failed := map[string]bool{}
	for i := range jobs {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("job %d (%v %v, %d MiB): differential result differs from full simulation",
				i, jobs[i].Cfg.Policy, jobs[i].Cfg.Algo, jobs[i].Cfg.Spec.MemBytes>>20)
		}
		if got[i].Trainable {
			trainable++
			continue
		}
		untrainable++
		for place, re := range failPlaces {
			if re.MatchString(want[i].FailReason) {
				failed[place] = true
			}
		}
	}
	if trainable == 0 || untrainable == 0 {
		t.Fatalf("sweep did not cross the trainability threshold (trainable=%d untrainable=%d): the untrainable pricing path went untested", trainable, untrainable)
	}
	for place := range failPlaces {
		if !failed[place] {
			t.Errorf("no untrainable point fails in the %s: that failure chain went untested", place)
		}
	}

	st := eng.Stats()
	if st.Priced == 0 {
		t.Fatalf("no result was priced from a structure (stats %+v)", st)
	}
	if st.Structures == 0 {
		t.Fatalf("no structure was built (stats %+v)", st)
	}
	// Structure sharing is the point: each eligible (policy, algo) column
	// must reuse one structure across all six capacities, not build one per
	// point.
	if st.Structures >= st.Priced {
		t.Errorf("structures (%d) >= priced results (%d): capacities are not sharing structures (stats %+v)",
			st.Structures, st.Priced, st)
	}
}

// TestDifferentialUntrainableExact pins the hardest equivalence case: an
// untrainable point priced from a structure must reproduce the full path's
// failure verbatim — Trainable, FailReason, the oracle demand report, and
// the Debug free-span dump.
func TestDifferentialUntrainableExact(t *testing.T) {
	net := networks.AlexNet(128)
	cfg := core.Config{
		Spec:   gpu.TitanX().WithMemory(1 << 30),
		Policy: core.Baseline,
		Algo:   core.PerfOptimal,
		Debug:  true,
	}
	want, err := core.Run(net, cfg)
	if err != nil {
		t.Fatalf("core.Run: %v", err)
	}
	if want.Trainable {
		t.Fatalf("baseline AlexNet(128) trains in 1 GB; pick a smaller capacity")
	}
	eng := NewEngine(1)
	got, err := eng.Run(context.Background(), net, cfg)
	if err != nil {
		t.Fatalf("engine Run: %v", err)
	}
	if got.FailReason != want.FailReason {
		t.Errorf("FailReason:\n  engine: %q\n  core:   %q", got.FailReason, want.FailReason)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("priced untrainable result differs from full simulation")
	}
	if st := eng.Stats(); st.Structures != 1 {
		t.Errorf("structures = %d, want 1 (stats %+v)", st.Structures, st)
	}
}

// TestDifferentialStructureStats checks the bookkeeping of the differential
// split on a clean capacity column: one oracle structure is built, every
// capacity — the first included — is priced from it, and a repeat request is
// a plain cache hit that builds and prices nothing new. The same column run
// as one parallel batch on a fresh engine must keep the same counts: its
// points race for the structure key and coalesce onto one build.
func TestDifferentialStructureStats(t *testing.T) {
	net := networks.AlexNet(128)
	ctx := context.Background()
	caps := []int64{2 << 30, 4 << 30, 8 << 30, 12 << 30}
	jobs := make([]Job, len(caps))
	for i, c := range caps {
		jobs[i] = Job{Net: net, Cfg: core.Config{Spec: gpu.TitanX().WithMemory(c), Policy: core.VDNNConv, Algo: core.PerfOptimal}}
	}
	check := func(name string, st Stats) {
		t.Helper()
		if st.Structures != 1 {
			t.Errorf("%s: structures = %d, want 1 shared across %d capacities (stats %+v)", name, st.Structures, len(caps), st)
		}
		if st.Priced != int64(len(caps)) {
			t.Errorf("%s: priced = %d, want %d — every capacity priced from the structure (stats %+v)", name, st.Priced, len(caps), st)
		}
		if st.Simulations != int64(len(caps)) {
			t.Errorf("%s: simulations = %d, want %d top-level computations (stats %+v)", name, st.Simulations, len(caps), st)
		}
	}

	eng := NewEngine(1)
	for _, j := range jobs {
		if _, err := eng.Run(ctx, j.Net, j.Cfg); err != nil {
			t.Fatal(err)
		}
	}
	st := eng.Stats()
	check("sequential", st)
	// Repeat: pure hits, nothing recomputed.
	for _, j := range jobs {
		if _, err := eng.Run(ctx, j.Net, j.Cfg); err != nil {
			t.Fatal(err)
		}
	}
	if st2 := eng.Stats(); st2.Structures != st.Structures || st2.Priced != st.Priced || st2.Simulations != st.Simulations {
		t.Errorf("repeat requests recomputed work: before %+v after %+v", st, st2)
	}

	par := NewEngine(4)
	if _, err := par.RunAll(ctx, jobs); err != nil {
		t.Fatal(err)
	}
	check("4-worker batch", par.Stats())
}

// TestShardedCacheStress hammers the sharded cache from concurrent RunAll
// batches over overlapping keys (run under -race in CI): every batch must
// return results identical to the sequential reference, and the singleflight
// guarantee must hold engine-wide — each unique key is computed exactly
// once, each unique structure built exactly once, no matter how many batches
// race for it.
func TestShardedCacheStress(t *testing.T) {
	// Exclude vDNN-dyn: its profiling candidates resolve nested and race
	// top-level requests for the same keys, so whether a key counts as a
	// Simulation or a Hit becomes scheduling-dependent. Dyn correctness under
	// the engine is covered by TestDifferentialEquivalence; this test pins
	// the exact singleflight arithmetic on the statically-keyed grid.
	var jobs []Job
	for _, j := range capacitySweepJobs(t) {
		if j.Cfg.Policy != core.VDNNDyn {
			jobs = append(jobs, j)
		}
	}

	// Sequential reference on a private engine.
	ref := NewEngine(1)
	want, err := ref.RunAll(context.Background(), jobs)
	if err != nil {
		t.Fatalf("reference RunAll: %v", err)
	}

	uniqueKeys := map[key]bool{}
	uniqueStructures := map[key]bool{}
	for _, j := range jobs {
		k := keyOf(j.Net, j.Cfg)
		uniqueKeys[k] = true
		if core.StructureShaped(k.cfg) {
			uniqueStructures[structureKey(k)] = true
		}
	}

	eng := NewEngine(8)
	const batches = 6
	var wg sync.WaitGroup
	errs := make([]error, batches)
	results := make([][]*core.Result, batches)
	perm := make([][]int, batches)
	for b := range perm {
		// Each batch requests the same key set in a different order, so
		// shards see claim/coalesce/hit races from every direction.
		perm[b] = rand.New(rand.NewSource(int64(b))).Perm(len(jobs))
	}
	for b := 0; b < batches; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			shuffled := make([]Job, len(jobs))
			for i, p := range perm[b] {
				shuffled[i] = jobs[p]
			}
			results[b], errs[b] = eng.RunAll(context.Background(), shuffled)
		}(b)
	}
	wg.Wait()
	for b := 0; b < batches; b++ {
		if errs[b] != nil {
			t.Fatalf("batch %d: %v", b, errs[b])
		}
		for i, p := range perm[b] {
			if !reflect.DeepEqual(results[b][i], want[p]) {
				t.Errorf("batch %d job %d: racing result differs from reference", b, p)
			}
		}
	}

	st := eng.Stats()
	if st.Simulations != int64(len(uniqueKeys)) {
		t.Errorf("simulations = %d, want %d (each unique key computed exactly once; stats %+v)",
			st.Simulations, len(uniqueKeys), st)
	}
	if st.Structures != int64(len(uniqueStructures)) {
		t.Errorf("structures = %d, want %d (each structure built exactly once; stats %+v)",
			st.Structures, len(uniqueStructures), st)
	}
	if st.Canceled != 0 {
		t.Errorf("canceled = %d, want 0 (stats %+v)", st.Canceled, st)
	}
}
