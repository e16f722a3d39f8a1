package core

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"vdnn/internal/compress"
	"vdnn/internal/gpu"
	"vdnn/internal/pcie"
)

// TestResultGolden pins whole Results — every field, including FailReason,
// Devices, Stages and PeakByKind — for a small fixed matrix spanning the
// three parallel shapes (one device, data-parallel replicas, pipeline
// stages): trainable points, points that fail while setting up a device,
// and points that fail mid-iteration, whose FailReason text carries the
// shape's error prefix. Refresh with
// `go test ./internal/core -run TestResultGolden -update-golden`.
func TestResultGolden(t *testing.T) {
	titanX := gpu.TitanX()
	mem := func(mib int64) gpu.Spec { return titanX.WithMemory(mib << 20) }
	zvc := compress.Config{Codec: compress.CodecZVC}
	shared := pcie.SharedGen3Root()

	cases := []struct {
		name string
		cfg  Config
		vgg  bool // VGG-16 (64) instead of the tiny trace network
	}{
		{name: "single/trainable", cfg: Config{Spec: titanX, Policy: VDNNAll, Algo: MemOptimal, CaptureSchedule: true, Debug: true}},
		{name: "single/baseline-perf", cfg: Config{Spec: titanX, Policy: Baseline, Algo: PerfOptimal}},
		{name: "single/fail-setup", cfg: Config{Spec: mem(4), Policy: Baseline, Algo: PerfOptimal, Debug: true}},
		{name: "single/fail-iteration", cfg: Config{Spec: mem(2 << 10), Policy: VDNNAll, Algo: PerfOptimal}, vgg: true},
		{name: "dp2-shared/trainable", cfg: Config{Spec: titanX, Policy: VDNNAll, Algo: MemOptimal, Devices: 2, Topology: shared, CaptureSchedule: true, Debug: true}},
		{name: "dp2-shared/fail-setup", cfg: Config{Spec: mem(4), Policy: Baseline, Algo: PerfOptimal, Devices: 2, Topology: shared}},
		{name: "dp2-shared/fail-iteration", cfg: Config{Spec: mem(2 << 10), Policy: VDNNAll, Algo: PerfOptimal, Devices: 2, Topology: shared}, vgg: true},
		{name: "dp3-skip-update/trainable", cfg: Config{Spec: titanX, Policy: VDNNConv, Algo: PerfOptimal, Devices: 3, SkipWeightUpdate: true}},
		{name: "pp2-m4/trainable", cfg: Config{Spec: titanX, Policy: VDNNAll, Algo: MemOptimal, Stages: 2, MicroBatches: 4, CaptureSchedule: true, Debug: true}},
		{name: "pp2-m4/fail-setup", cfg: Config{Spec: mem(1), Policy: VDNNAll, Algo: PerfOptimal, Stages: 2, MicroBatches: 4}},
		{name: "pp2-m4/fail-iteration", cfg: Config{Spec: mem(5), Policy: VDNNAll, Algo: PerfOptimal, Stages: 2, MicroBatches: 4}},
		{name: "pp2-m4/fail-second-iteration", cfg: Config{Spec: mem(6), Policy: VDNNAll, Algo: PerfOptimal, Stages: 2, MicroBatches: 4}},
		{name: "pp3-zvc/trainable", cfg: Config{Spec: titanX, Policy: VDNNAll, Algo: MemOptimal, Stages: 3, Compression: zvc}},
	}

	type entry struct {
		Name   string  `json:"name"`
		Result *Result `json:"result"`
	}
	var got []entry
	for _, c := range cases {
		net := traceNet(t)
		if c.vgg {
			net = vgg64
		}
		r, err := Run(net, c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got = append(got, entry{c.name, r})
	}
	buf, err := json.MarshalIndent(got, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	buf = append(buf, '\n')

	path := filepath.Join("testdata", "results.golden.json")
	if *updateGolden {
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-golden)", err)
	}
	if !bytes.Equal(buf, want) {
		var old []entry
		if err := json.Unmarshal(want, &old); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for i := range got {
			if i >= len(old) {
				t.Errorf("%s: not in %s", got[i].Name, path)
				continue
			}
			a, _ := json.Marshal(got[i].Result)
			b, _ := json.Marshal(old[i].Result)
			if got[i].Name != old[i].Name || !bytes.Equal(a, b) {
				t.Errorf("%s diverged from %s:\n got: %s\nwant: %s", got[i].Name, path, a, b)
			}
		}
		t.Fatalf("Results diverged from %s; re-run with -update-golden only after verifying the change is intended", path)
	}
}
