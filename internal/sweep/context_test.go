package sweep

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vdnn/internal/core"
	"vdnn/internal/dnn"
	"vdnn/internal/gpu"
	"vdnn/internal/networks"
)

// TestRunCanceledContext checks a canceled context fails fast without
// simulating.
func TestRunCanceledContext(t *testing.T) {
	eng := NewEngine(2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := eng.Run(ctx, networks.AlexNet(32), core.Config{Spec: gpu.TitanX()})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st := eng.Stats(); st.Simulations != 0 {
		t.Errorf("canceled Run still simulated %d times", st.Simulations)
	}
}

// TestRunAllCanceledContext checks a batch under a canceled context reports
// the context error and runs nothing.
func TestRunAllCanceledContext(t *testing.T) {
	eng := NewEngine(4)
	net := networks.AlexNet(32)
	jobs := make([]Job, 8)
	for i := range jobs {
		cfg := core.Config{Spec: gpu.TitanX(), Policy: core.VDNNConv, Iterations: i + 1}
		jobs[i] = Job{Net: net, Cfg: cfg}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := eng.RunAll(ctx, jobs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st := eng.Stats(); st.Simulations != 0 {
		t.Errorf("canceled RunAll still simulated %d times", st.Simulations)
	}
}

// TestCacheBound checks FIFO eviction under NewEngineCache: distinct
// configurations beyond the bound evict the oldest completed entries, and a
// re-request of an evicted configuration re-simulates.
func TestCacheBound(t *testing.T) {
	eng := NewEngineCache(1, 2)
	net := networks.AlexNet(32)
	ctx := context.Background()
	cfgN := func(iters int) core.Config {
		return core.Config{Spec: gpu.TitanX(), Policy: core.Baseline, Algo: core.MemOptimal, Iterations: iters}
	}
	for i := 1; i <= 3; i++ {
		if _, err := eng.Run(ctx, net, cfgN(i)); err != nil {
			t.Fatal(err)
		}
	}
	st := eng.Stats()
	if st.Simulations != 3 {
		t.Fatalf("simulations = %d, want 3", st.Simulations)
	}
	if st.Evictions == 0 {
		t.Fatalf("no evictions under bound 2 after 3 distinct configs (stats %+v)", st)
	}
	// cfg 3 is the newest entry: still cached.
	if _, err := eng.Run(ctx, net, cfgN(3)); err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats(); st.Simulations != 3 || st.Hits != 1 {
		t.Errorf("newest entry not served from cache (stats %+v)", st)
	}
	// cfg 1 was evicted first: re-simulates.
	if _, err := eng.Run(ctx, net, cfgN(1)); err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats(); st.Simulations != 4 {
		t.Errorf("evicted entry not re-simulated (stats %+v)", st)
	}
}

// gatePolicy records how many simulations overlap.
type gatePolicy struct {
	namedPolicy
	cur, max *int32
}

func (g gatePolicy) Profile(net *dnn.Network, cfg core.Config, simulate core.Simulate) (*core.Result, error) {
	c := atomic.AddInt32(g.cur, 1)
	for {
		m := atomic.LoadInt32(g.max)
		if c <= m || atomic.CompareAndSwapInt32(g.max, m, c) {
			break
		}
	}
	time.Sleep(20 * time.Millisecond)
	atomic.AddInt32(g.cur, -1)
	sub := cfg
	sub.Custom = nil
	sub.Policy = core.Baseline
	sub.Algo = core.MemOptimal
	return simulate(sub)
}

// TestRunBoundedByWorkerSlots checks single-Run callers respect the engine's
// parallelism: N concurrent Run calls with distinct keys on a 2-worker
// engine must never overlap more than 2 simulations — the serving daemon's
// -j contract.
func TestRunBoundedByWorkerSlots(t *testing.T) {
	eng := NewEngine(2)
	net := networks.AlexNet(32)
	var cur, max int32
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := core.Config{
				Spec:   gpu.TitanX(),
				Custom: gatePolicy{namedPolicy{name: fmt.Sprintf("gate-%d", i)}, &cur, &max},
			}
			if _, err := eng.Run(context.Background(), net, cfg); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if got := atomic.LoadInt32(&max); got > 2 {
		t.Errorf("max overlapping simulations = %d, want <= 2", got)
	}
	if st := eng.Stats(); st.Simulations != 8 {
		t.Errorf("simulations = %d, want 8 distinct", st.Simulations)
	}
}

// panicPolicy blows up inside the simulation.
type panicPolicy struct{ namedPolicy }

func (panicPolicy) Algorithms(_ *dnn.Network, _ *dnn.Layer, _ core.AlgoMode) core.AlgoMode {
	panic("policy bug")
}

// TestPanickingSimulationDoesNotPoisonCache checks a panic inside core.Run
// becomes a shared error: the first caller gets it, and a repeat request for
// the same key must not block forever on a never-closed entry.
func TestPanickingSimulationDoesNotPoisonCache(t *testing.T) {
	eng := NewEngine(2)
	net := networks.AlexNet(32)
	cfg := core.Config{Spec: gpu.TitanX(), Custom: panicPolicy{namedPolicy{name: "boom"}}}
	ctx := context.Background()

	if _, err := eng.Run(ctx, net, cfg); err == nil || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("first run error = %v, want simulation panic", err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := eng.Run(ctx, net, cfg)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "panic") {
			t.Fatalf("repeat run error = %v, want shared panic error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("repeat request for a panicked key hung: entry never closed")
	}
}

// namedPolicy lets tests mint custom policies with arbitrary names.
type namedPolicy struct{ name string }

func (p namedPolicy) Name() string { return p.name }
func (namedPolicy) OffloadInput(_ *dnn.Network, _ *dnn.Tensor, c *dnn.Layer) bool {
	return c.Kind == dnn.Conv
}
func (namedPolicy) Algorithms(_ *dnn.Network, _ *dnn.Layer, r core.AlgoMode) core.AlgoMode {
	return r
}
func (namedPolicy) PrefetchSchedule(_ *dnn.Network, r core.PrefetchMode) core.PrefetchMode {
	return r
}

// TestCustomPolicyCacheKey checks the engine keys custom policies by Name:
// the same name dedups, distinct names simulate separately, and a custom
// policy never collides with a built-in enum entry.
func TestCustomPolicyCacheKey(t *testing.T) {
	eng := NewEngine(2)
	net := networks.AlexNet(32)
	ctx := context.Background()
	base := core.Config{Spec: gpu.TitanX(), Algo: core.MemOptimal}

	withA, withA2, withB := base, base, base
	withA.Custom = namedPolicy{name: "A"}
	withA2.Custom = namedPolicy{name: "A"}
	withB.Custom = namedPolicy{name: "B"}

	r1, err := eng.Run(ctx, net, withA)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := eng.Run(ctx, net, withA2)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("same-name custom policies did not share a cache entry")
	}
	if _, err := eng.Run(ctx, net, withB); err != nil {
		t.Fatal(err)
	}
	// Built-in Baseline under the otherwise-identical config must not be
	// served from a custom policy's slot.
	if _, err := eng.Run(ctx, net, base); err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats(); st.Simulations != 3 {
		t.Errorf("simulations = %d, want 3 (A, B, builtin)", st.Simulations)
	}
}
