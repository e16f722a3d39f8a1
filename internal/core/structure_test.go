package core

import (
	"context"
	"strings"
	"testing"

	"vdnn/internal/gpu"
	"vdnn/internal/networks"
)

// TestPriceUntrainableReplaysOnly checks that pricing an untrainable point is
// an allocator replay and nothing more: it allocates no more than pricing a
// trainable point (whose replay runs the whole trace) plus the handful of
// objects that describe the failure. A simulation would allocate thousands.
func TestPriceUntrainableReplaysOnly(t *testing.T) {
	ctx := context.Background()
	net := networks.AlexNet(128)
	at := func(mib int64) Config {
		return Config{Spec: gpu.TitanX().WithMemory(mib << 20), Policy: VDNNAll, Algo: MemOptimal, Debug: true}
	}
	s, err := BuildStructure(ctx, net, at(12<<10))
	if err != nil {
		t.Fatal(err)
	}
	trainable, untrainable := at(12<<10), at(760)
	price := func(c Config) *Result {
		t.Helper()
		r, ok, err := s.Price(ctx, net, c)
		if err != nil || !ok {
			t.Fatalf("Price at %d MiB: ok=%v err=%v", c.Spec.MemBytes>>20, ok, err)
		}
		return r
	}
	if r := price(trainable); !r.Trainable {
		t.Fatalf("12 GiB: untrainable (%s)", r.FailReason)
	}
	// The untrainable point fails late, in a backward pass, so its replay
	// covers most of the trace.
	if r := price(untrainable); r.Trainable || !strings.Contains(r.FailReason, ": bwd ") {
		t.Fatalf("760 MiB: trainable=%v FailReason=%q, want a backward-pass failure", r.Trainable, r.FailReason)
	}
	allocs := func(c Config) float64 {
		return testing.AllocsPerRun(10, func() { s.Price(ctx, net, c) })
	}
	const failureObjects = 32
	if u, tr := allocs(untrainable), allocs(trainable); u > tr+failureObjects {
		t.Errorf("pricing an untrainable point allocates %.0f objects, a trainable one %.0f: more than a replay", u, tr)
	}
}
