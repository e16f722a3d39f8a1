package core

import (
	"context"
	"fmt"

	"vdnn/internal/dnn"
	"vdnn/internal/memalloc"
)

// Differential sweep evaluation: the structure/pricing split.
//
// Sweep points that differ only in device memory capacity re-derive an
// identical *structure* — network build, execution plan, offload/codec
// decisions, conv algorithm finds, and the whole simulated timeline — because
// capacity feeds back into a static single-device simulation in exactly two
// ways: through allocation failure, and through LargestFree (greedy algorithm
// selection only). BuildStructure therefore runs the configuration once on an
// oracle-sized pool while recording the allocator call sequence
// (memalloc.Trace); Price then evaluates the same configuration at any real
// capacity by replaying that trace — a pure allocator exercise, no
// re-simulation — and reuses the structure's Result wholesale when the replay
// succeeds. The replay's first failure is byte-for-byte the failure a full
// simulation would hit, and the trace marks every allocation with its run
// position (setup, or an iteration's input batch or a layer's forward or
// backward pass), so an untrainable point is priced from the replay too: the
// position rebuilds the exact failure chain, the replay pool supplies the
// Debug free spans, and the structure is the oracle demand report runStatic
// would re-simulate. Each configuration is simulated once, whatever its
// capacities.
//
// Everything here is exact, never approximate: a priced Result is
// reflect.DeepEqual to the full simulation's (the sweep engine's equivalence
// tests enforce it). Configurations outside the eligible shape — profilers,
// custom policies, greedy algorithm selection, multi-device, pipeline — fall
// back to the full path.

// StructureShaped reports whether a normalized configuration's simulation is
// capacity-independent apart from allocation success — the eligibility gate
// for differential evaluation. The shape excludes:
//
//   - custom policies (their decision functions are opaque),
//   - profiling policies (vDNN-dyn simulates capacity-dependent cascades),
//   - greedy algorithm selection (it consults the pool's free space),
//   - data-parallel and pipeline runs (several pools per run).
//
// Debug, CaptureSchedule, compression, page migration, prefetch modes and
// weight offloading are all capacity-independent and stay eligible.
func StructureShaped(cfg Config) bool {
	if cfg.Custom != nil || cfg.Policy == VDNNDyn {
		return false
	}
	if cfg.Algo == GreedyAlgo {
		return false
	}
	if cfg.Devices > 1 || cfg.Stages > 1 {
		return false
	}
	return true
}

// ValidateRun runs RunContext's full validation chain without simulating,
// so a caller can separate "invalid configuration" (must take the full path
// for the exact error) from "valid but maybe untrainable".
func ValidateRun(net *dnn.Network, cfg Config) error {
	_, err := validateConfig(net, cfg.WithDefaults())
	return err
}

// Structure is the capacity-independent stage of one configuration: the
// oracle-capacity Result plus the recorded allocator call sequence.
// Res is exactly what RunContext returns for the configuration with
// Oracle=true, at any device capacity — callers may serve it for oracle
// requests directly (it must not be mutated; clone before patching).
type Structure struct {
	Res   *Result
	trace *memalloc.Trace
}

// TraceLen returns the recorded allocator call count (diagnostics).
func (s *Structure) TraceLen() int { return s.trace.Len() }

// BuildStructure simulates cfg on an oracle-sized pool, recording the
// allocator trace. cfg must be structure-shaped and valid; its Oracle flag is
// ignored (the build always runs at oracle capacity).
func BuildStructure(ctx context.Context, net *dnn.Network, cfg Config) (*Structure, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if ctx.Err() != nil {
		return nil, canceled(ctx)
	}
	cfg = cfg.WithDefaults()
	cfg.Oracle = true
	pol, err := validateConfig(net, cfg)
	if err != nil {
		return nil, err
	}
	if !StructureShaped(cfg) {
		return nil, fmt.Errorf("core: policy %q is not structure-shaped", pol.Name())
	}
	plan, err := buildPlan(net, cfg, pol)
	if err != nil {
		return nil, err
	}
	tr := &memalloc.Trace{}
	res, err := execute(ctx, net, cfg, pol, plan, tr)
	if err != nil {
		return nil, err
	}
	tr.Trim() // the structure keeps it: hold exactly the recorded calls
	return &Structure{Res: res, trace: tr}, nil
}

// Price evaluates cfg — the structure's configuration at any device
// capacity — by replaying the recorded allocator trace; it never simulates.
// The bool reports whether pricing applied; false, when the classifier alone
// exceeds the capacity, means the caller must run the full path for that
// failure. When pricing applies, the Result is byte-identical to
// runStatic's: a copy of the structure's Result for an oracle request or a
// successful replay (Oracle flag patched), or — when the replay proves the
// point untrainable — the structure's demand report carrying the run's exact
// failure, rebuilt from the failing allocation's position (failAt).
func (s *Structure) Price(ctx context.Context, net *dnn.Network, cfg Config) (*Result, bool, error) {
	if ctx != nil && ctx.Err() != nil {
		return nil, false, canceled(ctx)
	}
	cfg = cfg.WithDefaults()
	r := *s.Res // a copy: a caller patching its Result cannot corrupt the structure
	if cfg.Oracle {
		return &r, true, nil // exactly an oracle run's Result at any capacity
	}
	// The framework (classifier) memory is allocated before the pool is
	// sized and never grows afterward, so the structure's FrameworkBytes is
	// exactly the fw.Used() the real run would subtract from the spec.
	realCap := cfg.Spec.PoolBytes() - s.Res.FrameworkBytes
	if realCap <= 0 {
		return nil, false, nil
	}
	r.Oracle = false
	f := s.trace.Replay(realCap)
	if f == nil {
		return &r, true, nil
	}
	r.Trainable = false
	r.FailReason = failAt(net, f.Pos, &AllocFailure{Label: f.Err.Label, Err: f.Err}).Error()
	if cfg.Debug {
		r.DebugFreeSpans = f.FreeSpans
	}
	return &r, true, nil
}
