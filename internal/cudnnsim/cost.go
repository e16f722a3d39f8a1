package cudnnsim

import (
	"math"

	"vdnn/internal/gpu"
	"vdnn/internal/sim"
)

// Cost describes one kernel invocation: its duration on the compute engine,
// the useful arithmetic it performs, and the DRAM traffic it generates. The
// executor feeds these directly into the simulation timeline; DRAMBytes /
// Dur is the achieved bandwidth plotted in the paper's Figure 13.
type Cost struct {
	Dur       sim.Time
	Flops     int64
	DRAMBytes int64
}

// finish applies the roofline: duration is the max of compute time and
// memory time, floored at the minimum kernel duration.
func finish(spec gpu.Spec, flops int64, effFlops float64, traffic int64) Cost {
	var computeT, memT float64
	if flops > 0 && effFlops > 0 {
		computeT = float64(flops) / (spec.PeakFlops * effFlops)
	}
	if traffic > 0 {
		memT = float64(traffic) / spec.EffDRAMBps()
	}
	t := math.Max(computeT, memT)
	d := sim.Time(t * 1e9)
	if d < minKernelTime {
		d = minKernelTime
	}
	return Cost{Dur: d, Flops: flops, DRAMBytes: traffic}
}

// sizeDerate models SM underutilization for small kernels: below the knee
// the achieved throughput falls off as the square root of the parallelism.
func sizeDerate(outElems int64) float64 {
	if outElems >= derateKneeElems {
		return 1
	}
	d := math.Sqrt(float64(outElems) / float64(derateKneeElems))
	if d < derateFloor {
		return derateFloor
	}
	return d
}

// gemmTraffic estimates DRAM traffic of a blocked M x Kd x Nd GEMM: each
// operand is streamed once, and re-read once per block-panel of the opposing
// dimension when it does not fit in L2. Conv layers expressed as implicit
// GEMMs inherit the im2col re-read factor through the logical B matrix.
func gemmTraffic(spec gpu.Spec, m, kd, nd, elemSize int64) int64 {
	a := m * kd * elemSize
	b := kd * nd * elemSize
	c := m * nd * elemSize
	ta := a
	if a > spec.L2Bytes {
		ta = a * ((nd + gemmBlock - 1) / gemmBlock)
	}
	tb := b
	if b > spec.L2Bytes {
		tb = b * ((m + gemmBlock - 1) / gemmBlock)
	}
	// Cap pathological re-read estimates at 64 passes over the operand; real
	// kernels add another blocking level long before this.
	if ta > 64*a {
		ta = 64 * a
	}
	if tb > 64*b {
		tb = 64 * b
	}
	return ta + tb + c
}

// ConvCost returns the cost of one convolution kernel. The roofline model is
// pure and cheap, so every call evaluates it.
func ConvCost(spec gpu.Spec, g ConvGeom, a ConvAlgo, dir Direction) Cost {
	if !a.Supported(g, dir) {
		panic("cudnnsim: ConvCost on unsupported algorithm " + a.String())
	}
	es := g.DType.Size()
	flops := g.Flops(dir)
	oh, ow := int64(g.OutH()), int64(g.OutW())
	n, c, k := int64(g.N), int64(g.C), int64(g.K)
	h, w := int64(g.H), int64(g.W)
	rs := int64(g.R) * int64(g.S)

	var outElems int64
	var traffic int64
	switch dir {
	case Fwd:
		outElems = n * k * oh * ow
	case BwdData:
		outElems = n * c * h * w
	case BwdFilter:
		outElems = k * c * rs
		// dW has few elements but the reduction streams the full maps.
		outElems = max64(outElems, n*k*oh*ow/8)
	}

	switch a {
	case ImplicitGEMM, ImplicitPrecompGEMM, GEMM:
		switch dir {
		case Fwd: // (K x C*R*S) * (C*R*S x N*Oh*Ow)
			traffic = gemmTraffic(spec, k, c*rs, n*oh*ow, es)
		case BwdData: // (C x K*R*S) * (K*R*S x N*H*W)
			traffic = gemmTraffic(spec, c, k*rs, n*h*w, es)
		case BwdFilter: // (K x N*Oh*Ow) * (N*Oh*Ow x C*R*S)
			traffic = gemmTraffic(spec, k, n*oh*ow, c*rs, es)
		}
		if a == GEMM {
			// Explicit im2col writes then reads the lowered matrix once more.
			traffic += 2 * c * rs * n * oh * ow * es
		}
	case FFT, FFTTiling:
		// Transforms write and read the frequency-domain workspace once each
		// way, plus the natural-domain tensors.
		ws := a.Workspace(g, dir)
		xb := n * c * h * w * es
		yb := n * k * oh * ow * es
		wb := k * c * rs * es
		traffic = xb + yb + wb + 2*ws
	}

	eff := a.effFlops(g) * sizeDerate(outElems)
	return finish(spec, flops, eff, traffic)
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// GEMMCost returns the cost of a cuBLAS SGEMM (classifier layers): an
// (M x Kd) * (Kd x Nd) multiply.
func GEMMCost(spec gpu.Spec, m, kd, nd, elemSize int64) Cost {
	flops := 2 * m * kd * nd
	eff := effCublasGEMM * sizeDerate(m*nd)
	return finish(spec, flops, eff, gemmTraffic(spec, m, kd, nd, elemSize))
}

// Bandwidth-bound layer kernels. Each takes the raw tensor byte counts and
// charges pure streaming traffic; FLOPs are negligible for all of them.

// ActivationFwdCost is an in-place ReLU/sigmoid/tanh: read X, write Y over
// the same buffer.
func ActivationFwdCost(spec gpu.Spec, bytes int64) Cost {
	return finish(spec, 0, 1, 2*bytes)
}

// ActivationBwdCost reads Y and dY and writes dX (in place over dY).
func ActivationBwdCost(spec gpu.Spec, bytes int64) Cost {
	return finish(spec, 0, 1, 3*bytes)
}

// PoolFwdCost reads X and writes the smaller Y.
func PoolFwdCost(spec gpu.Spec, inBytes, outBytes int64) Cost {
	return finish(spec, 0, 1, inBytes+outBytes)
}

// PoolBwdCost reads X, Y, dY and writes dX (cudnnPoolingBackward signature).
func PoolBwdCost(spec gpu.Spec, inBytes, outBytes int64) Cost {
	return finish(spec, 0, 1, 2*inBytes+2*outBytes)
}

// LRNFwdCost is a cross-channel local response normalization: reads X across
// a channel window and writes Y. The window re-read is cache-resident, so
// traffic is ~read + write.
func LRNFwdCost(spec gpu.Spec, bytes int64) Cost {
	return finish(spec, 0, 1, 2*bytes)
}

// LRNBwdCost reads X, Y and dY, writes dX.
func LRNBwdCost(spec gpu.Spec, bytes int64) Cost {
	return finish(spec, 0, 1, 4*bytes)
}

// DropoutFwdCost reads X and the mask, writes Y.
func DropoutFwdCost(spec gpu.Spec, bytes, maskBytes int64) Cost {
	return finish(spec, 0, 1, 2*bytes+maskBytes)
}

// DropoutBwdCost reads dY and the mask, writes dX.
func DropoutBwdCost(spec gpu.Spec, bytes, maskBytes int64) Cost {
	return finish(spec, 0, 1, 2*bytes+maskBytes)
}

// ConcatCost copies branch outputs into (fwd) or out of (bwd) a joined
// buffer: read + write of the moved bytes.
func ConcatCost(spec gpu.Spec, bytes int64) Cost {
	return finish(spec, 0, 1, 2*bytes)
}

// SoftmaxCost covers softmax plus the loss gradient seed: a few passes over
// the (small) class-score tensor.
func SoftmaxCost(spec gpu.Spec, bytes int64) Cost {
	return finish(spec, 0, 1, 4*bytes)
}

// ElementwiseCost is a generic streaming kernel over n bytes per pass.
func ElementwiseCost(spec gpu.Spec, bytes int64, passes int) Cost {
	return finish(spec, 0, 1, bytes*int64(passes))
}
