package vdnn_test

import (
	"context"
	"errors"
	"slices"
	"testing"

	"vdnn"
)

func TestSimulatorRunBatch(t *testing.T) {
	sim := vdnn.NewSimulator(vdnn.WithParallelism(4))
	net, err := vdnn.BuildNetwork("alexnet", 32)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []vdnn.Config{
		{Spec: vdnn.TitanX(), Policy: vdnn.Baseline, Algo: vdnn.PerfOptimal},
		{Spec: vdnn.TitanX(), Policy: vdnn.VDNNAll, Algo: vdnn.MemOptimal},
		{Spec: vdnn.TitanX(), Policy: vdnn.VDNNConv, Algo: vdnn.MemOptimal},
		{Spec: vdnn.TitanX(), Policy: vdnn.VDNNAll, Algo: vdnn.MemOptimal}, // duplicate of job 1
	}
	var jobs []vdnn.BatchJob
	for _, c := range cfgs {
		jobs = append(jobs, vdnn.BatchJob{Net: net, Cfg: c})
	}
	res, err := sim.RunBatch(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(jobs) {
		t.Fatalf("got %d results for %d jobs", len(res), len(jobs))
	}
	for i, r := range res {
		if r == nil || !r.Trainable {
			t.Fatalf("job %d: unexpected untrainable/nil result", i)
		}
		if r.Policy != cfgs[i].Policy {
			t.Errorf("job %d: result policy %v, want %v", i, r.Policy, cfgs[i].Policy)
		}
	}
	if res[1] != res[3] {
		t.Error("duplicate jobs did not share one cached result")
	}
	st := sim.Stats()
	if st.Simulations != 3 {
		t.Errorf("simulations = %d, want 3 (stats %+v)", st.Simulations, st)
	}

	// A single Run of an already-batched configuration is a cache hit.
	r, err := sim.Run(context.Background(), net, cfgs[0])
	if err != nil {
		t.Fatal(err)
	}
	if r != res[0] {
		t.Error("Run after RunBatch did not hit the shared cache")
	}
}

func TestSimulatorNetworkMemo(t *testing.T) {
	sim := vdnn.NewSimulator()
	a, err := sim.Network("alexnet", 32)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sim.Network("alexnet", 32)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("repeat Network call returned a distinct instance")
	}
	c, err := sim.Network("alexnet", 64)
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Error("different batch shared an instance")
	}
	if _, err := sim.Network("nope", 32); err == nil {
		t.Error("unknown name accepted")
	}
	// A repeat request through the memoized network is a cache hit.
	cfg := vdnn.Config{Spec: vdnn.TitanX(), Policy: vdnn.VDNNConv, Algo: vdnn.MemOptimal}
	if _, err := sim.Run(context.Background(), a, cfg); err != nil {
		t.Fatal(err)
	}
	n2, _ := sim.Network("alexnet", 32)
	if _, err := sim.Run(context.Background(), n2, cfg); err != nil {
		t.Fatal(err)
	}
	if st := sim.Stats(); st.Simulations != 1 || st.Hits != 1 {
		t.Errorf("memoized network did not produce a cache hit (stats %+v)", st)
	}
}

// TestSimulatorRebuiltNetworkHits checks that results are keyed on a
// network's structure, not on the instance: a rebuilt network is a cache
// hit, and a same-named network of a different structure is a miss.
func TestSimulatorRebuiltNetworkHits(t *testing.T) {
	sim := vdnn.NewSimulator()
	ctx := context.Background()
	cfg := vdnn.Config{Spec: vdnn.TitanX(), Policy: vdnn.VDNNConv, Algo: vdnn.MemOptimal}
	first, err := sim.Run(ctx, vdnn.AlexNet(32), cfg)
	if err != nil {
		t.Fatal(err)
	}
	again, err := sim.Run(ctx, vdnn.AlexNet(32), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if again != first {
		t.Error("rebuilt network was not served the cached result")
	}
	if st := sim.Stats(); st.Simulations != 1 || st.Hits != 1 {
		t.Errorf("rebuilt network: stats %+v, want 1 simulation and 1 hit", st)
	}

	// Same name, different layers; then same name and layers, different
	// input (the first conv's output shape is 55x55 for all three inputs).
	tiny := func(c, hw int) *vdnn.Network {
		b := vdnn.NewBuilder(vdnn.AlexNet(32).Name, 32, vdnn.Float32)
		x := b.Input(c, hw, hw)
		x = b.Conv(x, "conv1", 64, 11, 4, 2)
		x = b.ReLU(x, "relu1")
		x = b.FC(x, "fc", 10)
		b.SoftmaxLoss(x, "loss")
		return b.MustFinalize()
	}
	seen := []*vdnn.Result{first}
	for i, n := range []*vdnn.Network{tiny(3, 224), tiny(1, 224), tiny(3, 225)} {
		r, err := sim.Run(ctx, n, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if slices.Contains(seen, r) {
			t.Errorf("network %d (input %v) was served another network's result", i, n.Input.Shape)
		}
		seen = append(seen, r)
		if st := sim.Stats(); st.Simulations != int64(2+i) {
			t.Errorf("network %d (input %v): stats %+v, want %d simulations", i, n.Input.Shape, st, 2+i)
		}
	}
}

func TestSimulatorContextCancel(t *testing.T) {
	sim := vdnn.NewSimulator(vdnn.WithParallelism(2))
	net := vdnn.AlexNet(32)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sim.Run(ctx, net, vdnn.Config{Spec: vdnn.TitanX()}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st := sim.Stats(); st.Simulations != 0 {
		t.Errorf("canceled Run simulated %d times", st.Simulations)
	}
}

func TestSimulatorRegistries(t *testing.T) {
	// Built-ins resolve at both package and simulator level.
	if _, ok := vdnn.GPUByName("titanx"); !ok {
		t.Fatal("builtin gpu titanx missing")
	}
	if _, ok := vdnn.LinkByName("pcie3"); !ok {
		t.Fatal("builtin link pcie3 missing")
	}

	tiny := vdnn.TitanX()
	tiny.Name = "Tiny (1 GB)"
	tiny.MemBytes = 1 << 30
	sim := vdnn.NewSimulator(
		vdnn.WithGPU("tiny", tiny),
		vdnn.WithLink("fast", vdnn.NVLink()),
	)
	got, ok := sim.GPUByName("tiny")
	if !ok || got.MemBytes != 1<<30 {
		t.Fatalf("scoped gpu tiny = %+v, %v", got, ok)
	}
	if _, ok := vdnn.GPUByName("tiny"); ok {
		t.Error("scoped gpu leaked into the global registry")
	}
	if _, ok := sim.GPUByName("titanx"); !ok {
		t.Error("simulator lost the builtin registry")
	}
	if _, ok := sim.LinkByName("fast"); !ok {
		t.Error("scoped link missing")
	}
	names := sim.GPUNames()
	seen := map[string]bool{}
	for i, n := range names {
		seen[n] = true
		if i > 0 && names[i-1] >= n {
			t.Fatalf("GPUNames not sorted/unique: %v", names)
		}
	}
	if !seen["tiny"] || !seen["titanx"] {
		t.Errorf("GPUNames missing entries: %v", names)
	}

	// The scoped device runs: AlexNet(128) does not fit 1 GB under the
	// baseline but trains under vDNN-dyn.
	net := vdnn.AlexNet(128)
	spec, _ := sim.GPUByName("tiny")
	base, err := sim.Run(context.Background(), net, vdnn.Config{Spec: spec, Policy: vdnn.Baseline, Algo: vdnn.PerfOptimal})
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := sim.Run(context.Background(), net, vdnn.Config{Spec: spec, Policy: vdnn.VDNNDyn})
	if err != nil {
		t.Fatal(err)
	}
	if base.Trainable || !dyn.Trainable {
		t.Errorf("1 GB device: baseline trainable=%v (want false), dyn trainable=%v (want true)",
			base.Trainable, dyn.Trainable)
	}
}

// publicPolicy implements vdnn.OffloadPolicy using only public API types —
// the compile-time proof user policies need no internal/ imports.
type publicPolicy struct{}

func (publicPolicy) Name() string { return "public-test-policy" }
func (publicPolicy) OffloadInput(net *vdnn.Network, t *vdnn.Tensor, c *vdnn.Layer) bool {
	return c.Kind == vdnn.Conv && c.Stage == vdnn.FeatureExtraction
}
func (publicPolicy) Algorithms(_ *vdnn.Network, _ *vdnn.Layer, requested vdnn.AlgoMode) vdnn.AlgoMode {
	return requested
}
func (publicPolicy) PrefetchSchedule(_ *vdnn.Network, requested vdnn.PrefetchMode) vdnn.PrefetchMode {
	return requested
}

var _ vdnn.OffloadPolicy = publicPolicy{}

func TestCustomPolicyThroughPublicAPI(t *testing.T) {
	sim := vdnn.NewSimulator()
	net := vdnn.AlexNet(64)
	custom, err := sim.Run(context.Background(), net,
		vdnn.Config{Spec: vdnn.TitanX(), Custom: publicPolicy{}, Algo: vdnn.MemOptimal})
	if err != nil {
		t.Fatal(err)
	}
	conv, err := sim.Run(context.Background(), net,
		vdnn.Config{Spec: vdnn.TitanX(), Policy: vdnn.VDNNConv, Algo: vdnn.MemOptimal})
	if err != nil {
		t.Fatal(err)
	}
	if custom.PolicyName != "public-test-policy" {
		t.Errorf("PolicyName = %q", custom.PolicyName)
	}
	if custom.OffloadBytes != conv.OffloadBytes {
		t.Errorf("conv-mirror policy offloaded %d bytes, builtin vDNN-conv %d",
			custom.OffloadBytes, conv.OffloadBytes)
	}
}
