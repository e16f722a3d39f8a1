package cudnnsim

import (
	"sort"

	"vdnn/internal/gpu"
	"vdnn/internal/sim"
)

// AlgoPerf is one entry of the profiling result, mirroring cudnnAlgoPerf_t:
// the algorithm, its measured execution time, and its workspace requirement.
type AlgoPerf struct {
	Algo      ConvAlgo
	Time      sim.Time
	Workspace int64
}

// FindConvAlgorithms mirrors cudnnFindConvolution*AlgorithmEx: it evaluates
// every algorithm supported for the geometry and direction and returns them
// sorted fastest-first, ties toward less workspace, excluding algorithms
// whose workspace exceeds wsLimit (pass wsLimit < 0 for no limit).
// Frameworks call this during their startup profiling stage (Section III-C).
// Simulations that need only the winner call FastestAlgo, which builds no
// list.
func FindConvAlgorithms(spec gpu.Spec, g ConvGeom, dir Direction, wsLimit int64) []AlgoPerf {
	var out []AlgoPerf
	for a := ConvAlgo(0); a < numAlgos; a++ {
		if p, ok := evalAlgo(spec, g, a, dir, wsLimit); ok {
			out = append(out, p)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return faster(out[i], out[j]) })
	return out
}

// FastestAlgo returns the performance-optimal algorithm under a workspace
// limit: the head of FindConvAlgorithms' list, found by a direct argmin
// (ties toward less workspace, then enumeration order) that allocates
// nothing. Greedy algorithm selection calls it with the pool's largest free
// range as the limit (Section III-C). The memory-optimal choice,
// ImplicitGEMM, needs no workspace, so a valid geometry always has an
// answer.
func FastestAlgo(spec gpu.Spec, g ConvGeom, dir Direction, wsLimit int64) AlgoPerf {
	best, found := AlgoPerf{}, false
	for a := ConvAlgo(0); a < numAlgos; a++ {
		if p, ok := evalAlgo(spec, g, a, dir, wsLimit); ok && (!found || faster(p, best)) {
			best, found = p, true
		}
	}
	if !found {
		// Even a zero workspace limit admits implicit GEMM.
		return AlgoPerf{Algo: ImplicitGEMM, Time: ConvCost(spec, g, ImplicitGEMM, dir).Dur}
	}
	return best
}

// evalAlgo profiles one algorithm, reporting false when it is unsupported
// for the geometry or its workspace exceeds wsLimit (< 0: no limit).
func evalAlgo(spec gpu.Spec, g ConvGeom, a ConvAlgo, dir Direction, wsLimit int64) (AlgoPerf, bool) {
	if !a.Supported(g, dir) {
		return AlgoPerf{}, false
	}
	ws := a.Workspace(g, dir)
	if wsLimit >= 0 && ws > wsLimit {
		return AlgoPerf{}, false
	}
	return AlgoPerf{Algo: a, Time: ConvCost(spec, g, a, dir).Dur, Workspace: ws}, true
}

// faster orders profiling results: shorter time first, ties toward less
// workspace.
func faster(p, q AlgoPerf) bool {
	if p.Time != q.Time {
		return p.Time < q.Time
	}
	return p.Workspace < q.Workspace
}
