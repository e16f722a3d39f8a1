#!/usr/bin/env bash
# Builds vdnn-repro, vdnn-serve and the benchmark program from this checkout's
# sources, then runs one benchmark workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload cold --seed 1 --seconds 36 --trace 0
#
# Every build product and Go cache lives under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS= \
	XDG_CONFIG_HOME="$out/config"

{
	# With telemetry on (the default "local" mode) every go command may fork a
	# detached telemetry child that outlives this script. "go telemetry off"
	# itself starts none, and the mode it writes under XDG_CONFIG_HOME keeps the
	# builds below from starting one.
	go telemetry off
	go build -o "$out/bin/" ./cmd/vdnn-repro ./cmd/vdnn-serve
	(cd perfbench && go build -o "$out/bin/perfbench" .)
} >&2

exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/work" "$@"
