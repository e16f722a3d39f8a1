package cudnnsim_test

import (
	"sort"
	"testing"

	"vdnn/internal/cudnnsim"
	"vdnn/internal/gpu"
	"vdnn/internal/networks"
	"vdnn/internal/tensor"
)

// TestFastestAlgoMatchesFind pins FastestAlgo's direct argmin to the head of
// FindConvAlgorithms' sorted list over every CONV geometry the simulator can
// see: each studied network at three batch sizes in fp32 and fp16, on four
// device profiles, in all three directions, under no workspace limit, a zero
// limit, and the median and maximum workspace of the unlimited list. An
// empty list (nothing fits) must yield implicit GEMM.
func TestFastestAlgoMatchesFind(t *testing.T) {
	geoms := map[cudnnsim.ConvGeom]string{}
	for _, name := range networks.Names() {
		for _, batch := range []int{1, 32, 128} {
			net, err := networks.ByName(name, batch)
			if err != nil {
				t.Fatal(err)
			}
			for _, l := range net.ConvLayers() {
				for _, d := range []tensor.DType{tensor.Float32, tensor.Float16} {
					geoms[l.ConvGeom(d)] = name + "/" + l.Name
				}
			}
		}
	}
	if len(geoms) == 0 {
		t.Fatal("no CONV geometries collected")
	}

	var checked, ties int
	for _, specName := range []string{"titanx", "p100", "gtx980", "rapidnn"} {
		spec, ok := gpu.ByName(specName)
		if !ok {
			t.Fatalf("unknown device %q", specName)
		}
		for g, where := range geoms {
			for _, dir := range []cudnnsim.Direction{cudnnsim.Fwd, cudnnsim.BwdData, cudnnsim.BwdFilter} {
				all := cudnnsim.FindConvAlgorithms(spec, g, dir, -1)
				if len(all) > 1 && all[0].Time == all[1].Time && all[0].Workspace == all[1].Workspace {
					ties++
				}
				ws := make([]int64, len(all))
				for i, p := range all {
					ws[i] = p.Workspace
				}
				sort.Slice(ws, func(i, j int) bool { return ws[i] < ws[j] })
				limits := []int64{-1, 0}
				if len(ws) > 0 {
					limits = append(limits, ws[len(ws)/2], ws[len(ws)-1])
				}
				for _, lim := range limits {
					got := cudnnsim.FastestAlgo(spec, g, dir, lim)
					want := cudnnsim.AlgoPerf{Algo: cudnnsim.ImplicitGEMM,
						Time: cudnnsim.ConvCost(spec, g, cudnnsim.ImplicitGEMM, dir).Dur}
					if list := cudnnsim.FindConvAlgorithms(spec, g, dir, lim); len(list) > 0 {
						want = list[0]
					}
					if got != want {
						t.Errorf("%s %s %v %v limit %d: FastestAlgo = %+v, FindConvAlgorithms head = %+v",
							specName, where, g, dir, lim, got, want)
					}
					checked++
				}
			}
		}
	}
	t.Logf("%d geometries, %d (spec, geometry, direction, limit) points, %d exact ties at the head", len(geoms), checked, ties)
}
