package vdnn

import (
	"context"

	"vdnn/internal/compress"
	"vdnn/internal/core"
	"vdnn/internal/dnn"
	"vdnn/internal/gpu"
	"vdnn/internal/networks"
	"vdnn/internal/pcie"
	"vdnn/internal/sim"
	"vdnn/internal/store"
	"vdnn/internal/sweep"
	"vdnn/internal/tensor"
)

// The public API is a thin facade over the internal packages: type aliases
// keep one definition of each concept while hiding the internal import
// paths from downstream users.

// Policy selects the memory manager (paper Section III-C).
type Policy = core.Policy

// Memory-management policies.
const (
	// Baseline is the Torch-style network-wide allocation policy.
	Baseline = core.Baseline
	// VDNNAll offloads every feature-extraction layer's input feature map.
	VDNNAll = core.VDNNAll
	// VDNNConv offloads only the CONV layers' input feature maps.
	VDNNConv = core.VDNNConv
	// VDNNDyn profiles at startup to balance trainability and performance.
	VDNNDyn = core.VDNNDyn
)

// AlgoMode selects convolution algorithms: the paper's (m) memory-optimal
// and (p) performance-optimal variants, plus the dynamic policy's greedy
// online downgrade mode.
type AlgoMode = core.AlgoMode

// Algorithm modes.
const (
	MemOptimal  = core.MemOptimal
	PerfOptimal = core.PerfOptimal
	GreedyAlgo  = core.GreedyAlgo
)

// PrefetchMode selects the prefetch schedule (Figure 9 JIT by default).
type PrefetchMode = core.PrefetchMode

// Prefetch schedules.
const (
	PrefetchJIT   = core.PrefetchJIT
	PrefetchFig10 = core.PrefetchFig10
	PrefetchNone  = core.PrefetchNone
	PrefetchEager = core.PrefetchEager
)

// Codec selects the compression algorithm of the simulated compressing DMA
// engine (the cDMA follow-up paper): CodecNone disables it, CodecZVC is
// cDMA's zero-value compression, CodecRLE a run-length/CSR-style variant.
type Codec = compress.Codec

// Compression codecs.
const (
	CodecNone = compress.CodecNone
	CodecZVC  = compress.CodecZVC
	CodecRLE  = compress.CodecRLE
)

// Compression selects the compressed-DMA model of a simulation: a codec plus
// a named activation-sparsity profile (see SparsityProfileNames). Set it on
// Config.Compression; the zero value disables compression and leaves every
// schedule and cache key untouched.
type Compression = compress.Config

// SparsityProfile is a deterministic activation-sparsity model: how many
// zeros the codec finds in ReLU-family outputs as a function of network
// depth. Named presets live in a registry ("cdma", "flat50", "dense").
type SparsityProfile = compress.Profile

// OffloadPolicy is the extension point of the memory manager: a user
// implementation decides per layer what is offloaded, which convolution
// algorithm mode runs, and which prefetch schedule to follow. Set it on
// Config.Custom; the four paper policies are built-in implementations
// (BuiltinPolicy). See core.OffloadPolicy for the full contract.
type OffloadPolicy = core.OffloadPolicy

// CompressionPolicy is an optional OffloadPolicy extension: a policy that
// implements it is consulted per offloaded buffer and may veto or override
// the configured codec (Config.Compression).
type CompressionPolicy = core.CompressionPolicy

// Profiler is an optional OffloadPolicy extension: a policy that settles its
// final configuration by running candidate simulations at startup, the way
// the paper's dynamic policy does.
type Profiler = core.Profiler

// Simulate runs one candidate configuration on behalf of a Profiler.
type Simulate = core.Simulate

// BuiltinPolicy returns the built-in OffloadPolicy implementation of a
// Policy enum value, so custom policies can delegate to a paper policy and
// refine it.
func BuiltinPolicy(p Policy) (OffloadPolicy, error) { return core.BuiltinPolicy(p) }

// Config selects what to simulate; see the field documentation on
// core.Config.
type Config = core.Config

// Result carries every metric of a simulated training iteration.
type Result = core.Result

// LayerStats is the per-layer view of a Result.
type LayerStats = core.LayerStats

// Time is simulated time in nanoseconds (every duration in a Result —
// IterTime, FETime, per-layer and per-device times — is one of these).
type Time = sim.Time

// DeviceResult is the per-replica view of a data-parallel Result
// (Config.Devices > 1): step time, traffic, contention stalls and overlap
// efficiency of one GPU.
type DeviceResult = core.DeviceResult

// StageResult is the per-stage view of a pipeline-parallel Result
// (Config.Stages > 1): the stage's layer range, its active span and
// measured pipeline bubble, its inter-stage wire traffic and its own
// offload/prefetch traffic.
type StageResult = core.StageResult

// ResultStore is a persistent result cache a Simulator reads through before
// simulating and writes through after (WithStore). Store is the file-backed
// implementation; the interface is exported so tests and alternative
// backends can substitute their own.
type ResultStore = sweep.ResultStore

// Store is the file-backed ResultStore: one content-addressed, checksummed
// record file per (network, normalized configuration) key, written
// atomically so concurrent processes can share a store directory. See
// OpenStore.
type Store = store.Store

// StoreStats is a snapshot of a Store's counters (records, hits, misses,
// writes, write errors, corrupt records skipped).
type StoreStats = store.Stats

// OpenStore opens (creating if needed) a persistent result store rooted at
// dir. Every record's envelope (length and checksum) is checked up front:
// truncated or corrupt records are skipped and counted, never fatal, so a
// store that survived a crash or a bad disk still serves its intact
// results. A record's payload is decoded and validated when it is read; one
// that fails reads as a miss. Pass the result to WithStore.
func OpenStore(dir string) (*Store, error) { return store.Open(dir) }

// GPU describes the simulated device: compute cost, memory hierarchy
// (capacity, bandwidth, reservation, MemoryKind), host Link, and the linear
// power/energy model. Every entry of the hardware catalog materializes to
// one of these.
type GPU = gpu.Spec

// Backend is a pluggable accelerator entry of the hardware catalog: a
// stable registry token plus the GPU spec it materializes. Fixed profiles
// use SpecBackend; RegisterBackend installs custom implementations.
type Backend = gpu.Backend

// SpecBackend is the trivial Backend: a token bound to a fixed GPU spec.
type SpecBackend = gpu.SpecBackend

// MemoryKind classifies a device's memory technology (GDDR, HBM stacks, or
// the accelerator-resident DRAM of a near-memory design). Catalog metadata
// only — it never changes a schedule.
type MemoryKind = gpu.MemoryKind

// Memory kinds.
const (
	GDDR     = gpu.GDDR
	HBM      = gpu.HBM
	NearDRAM = gpu.NearDRAM
)

// PowerStats is a Result's board-power summary: time-weighted average and
// instantaneous maximum watts over the measured iteration.
type PowerStats = gpu.PowerStats

// EnergyStats is a Result's per-op energy breakdown in joules — compute,
// DMA, codec and idle-floor buckets whose TotalJ() equals the power
// timeline's integral (Power.AvgW x the measured span).
type EnergyStats = gpu.EnergyStats

// Link describes a host interconnect.
type Link = pcie.Link

// LinkClass groups links into interconnect families (PCIe, NVLINK-class,
// on-die fabric). Catalog metadata only — costs come from the Link numbers.
type LinkClass = pcie.LinkClass

// Link classes.
const (
	ClassPCIe   = pcie.ClassPCIe
	ClassNVLink = pcie.ClassNVLink
	ClassOnDie  = pcie.ClassOnDie
)

// Topology describes how data-parallel replicas attach to the host
// interconnect: dedicated per-device links, or links sharing a root complex
// with bounded aggregate bandwidth (set it on Config.Topology alongside
// Config.Devices).
type Topology = pcie.Topology

// Network is a layer graph ready to simulate.
type Network = dnn.Network

// Builder assembles custom networks layer by layer.
type Builder = dnn.Builder

// Tensor is a feature-map buffer inside a network under construction.
type Tensor = dnn.Tensor

// Layer is one step of a network's statically ordered computation sequence;
// OffloadPolicy implementations inspect it (Kind, InPlace, shapes) when
// deciding what to offload.
type Layer = dnn.Layer

// LayerKind enumerates the layer types of the benchmark networks.
type LayerKind = dnn.LayerKind

// Layer kinds.
const (
	Conv        = dnn.Conv
	ReLU        = dnn.ReLU
	Pool        = dnn.Pool
	LRN         = dnn.LRN
	Concat      = dnn.Concat
	Add         = dnn.Add
	BatchNorm   = dnn.BatchNorm
	FC          = dnn.FC
	Dropout     = dnn.Dropout
	SoftmaxLoss = dnn.SoftmaxLoss
)

// Stage splits a network between vDNN-managed feature extraction and the
// unmanaged classifier tail.
type Stage = dnn.Stage

// Stages.
const (
	FeatureExtraction = dnn.FeatureExtraction
	Classifier        = dnn.Classifier
)

// DType is a tensor element type.
type DType = tensor.DType

// Element types.
const (
	Float32 = tensor.Float32
	Float16 = tensor.Float16
)

// FormatBytes renders a byte count with a binary-unit suffix ("1.5 GB").
func FormatBytes(n int64) string { return tensor.FormatBytes(n) }

// The hardware constructors below are thin aliases over the catalog — each
// one returns exactly its registry entry (GPUByName / LinkByName /
// TopologyByName), which is the preferred way to address hardware. They are
// kept so no existing caller breaks; new code should resolve catalog names.

// catalogGPU, catalogLink and catalogTopology back the legacy constructors
// with registry lookups. The built-in names are always registered, so a
// miss is a programming error.
func catalogGPU(name string) GPU {
	s, ok := gpu.ByName(name)
	if !ok {
		panic("vdnn: built-in device " + name + " missing from catalog")
	}
	return s
}

func catalogLink(name string) Link {
	l, ok := pcie.ByName(name)
	if !ok {
		panic("vdnn: built-in link " + name + " missing from catalog")
	}
	return l
}

func catalogTopology(name string) Topology {
	t, ok := pcie.TopologyByName(name)
	if !ok {
		panic("vdnn: built-in topology " + name + " missing from catalog")
	}
	return t
}

// TitanX returns the paper's evaluation GPU: NVIDIA Titan X (Maxwell),
// 7 TFLOPS, 336 GB/s, 12 GB, PCIe gen3 x16. Alias for GPUByName("titanx").
func TitanX() GPU { return catalogGPU("titanx") }

// TitanXNVLink returns a what-if Titan X with an NVLINK-class interconnect.
// Alias for GPUByName("titanx-nvlink").
func TitanXNVLink() GPU { return catalogGPU("titanx-nvlink") }

// GTX980 returns the 4 GB previous-generation Maxwell card. Alias for
// GPUByName("gtx980").
func GTX980() GPU { return catalogGPU("gtx980") }

// TeslaK40 returns the Kepler-generation 12 GB compute card. Alias for
// GPUByName("teslak40").
func TeslaK40() GPU { return catalogGPU("teslak40") }

// PascalP100 returns a forward-looking 16 GB HBM2 device with NVLINK.
// Alias for GPUByName("p100").
func PascalP100() GPU { return catalogGPU("p100") }

// RapidNN returns the RAPIDNN-style near-memory accelerator profile: compute
// in the DRAM stack, an on-die fabric in place of a host link (offload wire
// cost near zero), and a far lower power envelope. Alias for
// GPUByName("rapidnn").
func RapidNN() GPU { return catalogGPU("rapidnn") }

// PCIeGen3 returns the paper's interconnect (12.8 GB/s effective DMA).
// Alias for LinkByName("pcie3").
func PCIeGen3() Link { return catalogLink("pcie3") }

// NVLink returns a first-generation NVLINK link model. Alias for
// LinkByName("nvlink").
func NVLink() Link { return catalogLink("nvlink") }

// DedicatedTopology gives every replica its full link: transfers never
// contend (the single-GPU model, and the zero value of Topology). Alias for
// TopologyByName("dedicated").
func DedicatedTopology() Topology { return catalogTopology("dedicated") }

// SharedRootTopology builds a topology whose device links hang off a root
// complex with the given per-direction aggregate bandwidth (bytes/sec).
func SharedRootTopology(name string, aggregateBps int64) Topology {
	return pcie.SharedRoot(name, aggregateBps)
}

// SharedGen3Root returns the worst-case multi-GPU topology: every replica
// behind one gen3 x16 uplink (12.8 GB/s effective, shared). This is the
// default topology of multi-device configurations. Alias for
// TopologyByName("shared-x16").
func SharedGen3Root() Topology { return catalogTopology("shared-x16") }

// ErrCanceled marks a simulation abandoned by context cancellation: errors
// from Simulator.Run/RunBatch satisfy errors.Is(err, ErrCanceled) (and
// errors.Is against context.Canceled or context.DeadlineExceeded, whichever
// cause applied) when the simulation stopped early instead of failing.
var ErrCanceled = core.ErrCanceled

// Run simulates training one network under one configuration — the one-shot
// convenience for scripts. Long-lived callers, batch sweeps and anything
// serving repeated requests should use a Simulator, which adds caching,
// deduplication, bounded concurrency and context cancellation. When the
// configuration cannot train the network (out of memory), the Result has
// Trainable == false and reports the hypothetical memory demand measured on
// an oracular device; a non-nil error indicates an invalid configuration.
func Run(net *Network, cfg Config) (*Result, error) { return core.Run(net, cfg) }

// RunContext is Run under a context: cancellation is checked at layer
// granularity (per clock step for pipeline runs), so a canceled simulation
// returns within the cost of one layer's bookkeeping. The returned error
// wraps ErrCanceled and the context's cause.
func RunContext(ctx context.Context, net *Network, cfg Config) (*Result, error) {
	return core.RunContext(ctx, net, cfg)
}

// BuildNetwork constructs one of the paper's benchmark networks by name:
// "alexnet", "overfeat", "googlenet", "vgg16", or the very deep variants
// "vgg116", "vgg216", "vgg316", "vgg416".
func BuildNetwork(name string, batch int) (*Network, error) { return networks.ByName(name, batch) }

// NetworkNames lists the names BuildNetwork accepts.
func NetworkNames() []string { return networks.Names() }

// AlexNet builds the AlexNet benchmark (one-weird-trick variant).
func AlexNet(batch int) *Network { return networks.AlexNet(batch) }

// OverFeat builds the OverFeat (fast) benchmark.
func OverFeat(batch int) *Network { return networks.OverFeat(batch) }

// GoogLeNet builds GoogLeNet v1 (fork/join inception topology).
func GoogLeNet(batch int) *Network { return networks.GoogLeNet(batch) }

// VGG16 builds VGG-16 (Model D).
func VGG16(batch int) *Network { return networks.VGG16(batch) }

// VGGDeep builds the very deep VGG variants of the paper's case study:
// convLayers must be 16 + a multiple of 100 (116, 216, 316, 416).
func VGGDeep(convLayers, batch int) *Network { return networks.VGGDeep(convLayers, batch) }

// ResNet50 builds ResNet-50 (residual bottleneck blocks with BN).
func ResNet50(batch int) *Network { return networks.ResNet50(batch) }

// ResNet101 builds ResNet-101.
func ResNet101(batch int) *Network { return networks.ResNet101(batch) }

// ResNet152 builds ResNet-152, the >100-convolution ImageNet winner the
// paper's introduction anticipates.
func ResNet152(batch int) *Network { return networks.ResNet152(batch) }

// Transformer builds a ViT-Large-style 24-block encoder whose attention
// score maps are quadratic in the token count — the post-paper workload
// whose activation footprint most stresses an offload policy.
func Transformer(batch int) *Network { return networks.Transformer(batch) }

// NewBuilder starts a custom network definition with the given input batch
// size and element type. The builder API mirrors Torch/Caffe-style model
// definitions; see the dnn.Builder methods.
func NewBuilder(name string, batch int, d DType) *Builder { return dnn.NewBuilder(name, batch, d) }
