package core

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"vdnn/internal/compress"
	"vdnn/internal/dnn"
	"vdnn/internal/gpu"
	"vdnn/internal/pcie"
	"vdnn/internal/tensor"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden files (Chrome traces and whole Results)")

// traceNet is a tiny deterministic network for the golden traces: two CONV
// blocks and a classifier, enough to exercise offload, prefetch and (multi
// device) all-reduce without a megabyte of JSON.
func traceNet(t *testing.T) *dnn.Network {
	t.Helper()
	b := dnn.NewBuilder("tracenet", 16, tensor.Float32)
	x := b.Input(3, 32, 32)
	x = b.Conv(x, "conv1", 16, 3, 1, 1)
	x = b.ReLU(x, "relu1")
	x = b.Conv(x, "conv2", 16, 3, 1, 1)
	x = b.ReLU(x, "relu2")
	x = b.FC(x, "fc", 10)
	x = b.SoftmaxLoss(x, "loss")
	net, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// checkGolden compares the trace produced by cfg against its golden file
// (refresh with `go test ./internal/core -run Golden -update-golden`).
func checkGolden(t *testing.T, cfg Config, golden string) {
	t.Helper()
	cfg.CaptureSchedule = true
	r, err := Run(traceNet(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", golden)
	if *updateGolden {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-golden)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("Chrome trace diverged from %s.\nRe-run with -update-golden after verifying the change is intended.\n got: %s", path, buf.Bytes())
	}
}

// TestChromeTraceGoldenSingle pins the single-device trace format: stable
// event ordering, the compute=0/copyD2H=1/copyH2D=2 tid mapping, one gpu0
// process track.
func TestChromeTraceGoldenSingle(t *testing.T) {
	checkGolden(t, Config{Spec: gpu.TitanX(), Policy: VDNNAll, Algo: MemOptimal},
		"chrome_trace_single.golden.json")
}

// TestChromeTraceGoldenMultiGPU pins the multi-device trace: every replica a
// pid with its own engine tracks, all-reduce ops included, deterministic
// byte for byte.
func TestChromeTraceGoldenMultiGPU(t *testing.T) {
	checkGolden(t, Config{
		Spec: gpu.TitanX(), Policy: VDNNAll, Algo: MemOptimal,
		Devices: 2, Topology: pcie.SharedGen3Root(),
	}, "chrome_trace_multigpu.golden.json")
}

// TestChromeTraceGoldenCompressed pins the compressed-DMA trace: CMP events
// on the copyD2H track feeding shrunken OFF transfers, DEC events on the
// copyH2D track behind the PRE transfers, with the dense input batch passing
// through uncompressed.
func TestChromeTraceGoldenCompressed(t *testing.T) {
	cfg := Config{Spec: gpu.TitanX(), Policy: VDNNAll, Algo: MemOptimal}
	cfg.Compression = compress.Config{Codec: compress.CodecZVC}
	checkGolden(t, cfg, "chrome_trace_compressed.golden.json")
}
