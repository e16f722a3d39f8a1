package core

import (
	"context"
	"maps"
	"testing"

	"vdnn/internal/cudnnsim"
	"vdnn/internal/networks"
)

// TestDebugPeakLivePinned pins a Debug run's live set at the pool peak, as
// the pool reconstructs it from its usage log and label table.
func TestDebugPeakLivePinned(t *testing.T) {
	r := run(t, alexNet, Config{Spec: titan(), Policy: VDNNAll, Algo: MemOptimal, Debug: true})
	want := map[string]int64{
		"conv1.W": 93184, "conv1.dW": 93184,
		"conv2.W": 1229824, "conv2.dW": 1229824,
		"conv3.W": 2655744, "conv3.dW": 2655744,
		"conv4.W": 3539968, "conv4.dW": 3539968,
		"conv5.W": 2360320, "conv5.dW": 2360320,
		"fm0": 77070336, "fm1": 99123200, "grad1": 99123200,
	}
	if !maps.Equal(r.DebugPeakLive, want) {
		t.Errorf("DebugPeakLive = %v\nwant %v", r.DebugPeakLive, want)
	}
	if r.DebugPeakTime != 476995205 {
		t.Errorf("DebugPeakTime = %d, want 476995205", r.DebugPeakTime)
	}
}

// TestFailReasonPinned pins the failure text of untrainable points — one
// failing at setup, one inside an iteration — on the full path and through
// a structure's Price, whose OOM label comes from the trace's label table.
func TestFailReasonPinned(t *testing.T) {
	ctx := context.Background()
	net := vgg256
	for _, tc := range []struct {
		cfg  Config
		want string
	}{
		{Config{Spec: titan(), Policy: Baseline, Algo: PerfOptimal},
			`allocating fm7: memalloc: out of memory allocating 822083584 bytes for "fm7" (used 11369987072 of 11867521024, largest free 497533952)`},
		{Config{Spec: titan().WithMemory(3 << 30), Policy: VDNNAll, Algo: MemOptimal},
			`iteration 0: fwd conv1_1: allocating fm1: memalloc: out of memory allocating 3288334336 bytes for "fm1" (used 271858688 of 2203844608, largest free 1931985920)`},
	} {
		r := run(t, net, tc.cfg)
		if r.Trainable || r.FailReason != tc.want {
			t.Errorf("%v%v full path: trainable=%v FailReason\n%q\nwant\n%q", tc.cfg.Policy, tc.cfg.Algo, r.Trainable, r.FailReason, tc.want)
		}
		s, err := BuildStructure(ctx, net, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		p, ok, err := s.Price(ctx, net, tc.cfg)
		if err != nil || !ok {
			t.Fatalf("Price: ok=%v err=%v", ok, err)
		}
		if p.Trainable || p.FailReason != tc.want {
			t.Errorf("%v%v Price: trainable=%v FailReason\n%q\nwant\n%q", tc.cfg.Policy, tc.cfg.Algo, p.Trainable, p.FailReason, tc.want)
		}
	}
}

// TestGreedyCostTable drives a greedy run whose algorithm picks change
// between iterations and checks, after every iteration, that the run's cost
// table holds exactly what the cost model gives for the algorithms the
// iteration used: a table entry is recomputed when the picks change, and
// only then.
func TestGreedyCostTable(t *testing.T) {
	net := networks.VGG16(128)
	c := Config{Spec: titan().WithMemory(9 << 30), Policy: VDNNConv, Algo: GreedyAlgo, Iterations: 3}.WithDefaults()
	pol, err := validateConfig(net, c)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := buildPlan(net, c, pol)
	if err != nil {
		t.Fatal(err)
	}
	g, err := newGrid(context.Background(), net, c, pol, plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	rt := g.rts[0]
	var prev []LayerStats
	changes := 0
	for iter := 0; iter < c.Iterations; iter++ {
		rt.iter = iter
		rt.resetIteration()
		if err := g.stepLockstep(); err != nil {
			t.Fatalf("iteration %d: %v", iter, err)
		}
		for _, l := range net.ConvLayers() {
			st, lc := rt.stats[l.ID], rt.lc[l.ID]
			g := l.ConvGeom(net.DType)
			if lc.fwdAlgo != st.AlgoFwd || lc.fwd != cudnnsim.ConvCost(c.Spec, g, st.AlgoFwd, cudnnsim.Fwd) {
				t.Errorf("iteration %d %s: fwd table (%v, %+v), used %v", iter, l.Name, lc.fwdAlgo, lc.fwd, st.AlgoFwd)
			}
			want := [2]cudnnsim.Cost{
				cudnnsim.ConvCost(c.Spec, g, st.AlgoBwdData, cudnnsim.BwdData),
				cudnnsim.ConvCost(c.Spec, g, st.AlgoBwdFilter, cudnnsim.BwdFilter),
			}
			if lc.bwdAlgos != [2]cudnnsim.ConvAlgo{st.AlgoBwdData, st.AlgoBwdFilter} || lc.nBwd != 2 || lc.bwd != want {
				t.Errorf("iteration %d %s: bwd table (%v, %+v), used %v/%v", iter, l.Name, lc.bwdAlgos, lc.bwd, st.AlgoBwdData, st.AlgoBwdFilter)
			}
			if prev != nil {
				p := prev[l.ID]
				if p.AlgoFwd != st.AlgoFwd || p.AlgoBwdData != st.AlgoBwdData || p.AlgoBwdFilter != st.AlgoBwdFilter {
					changes++
				}
			}
		}
		prev = append(prev[:0], rt.stats...)
	}
	if changes == 0 {
		t.Fatal("no greedy pick changed between iterations: the run no longer exercises a table refill")
	}
}
