#!/usr/bin/env bash
# Builds the benchmark once and runs it from the repository root.
#
#   bench/run.sh --workload W --seed N --seconds S --trace 0|1
#       one workload in one process; this is what BENCHMARK.json's command
#       runs. The last line of output is the result object.
#   bench/run.sh --describe
#       prints BENCHMARK.json as the suite's tables define it.
#   bench/run.sh [--seed N] [--seconds S] [--windows K]
#       the whole suite: all five workloads untraced, then all five traced,
#       each in a process of its own; bench/out/metrics.json gets every
#       result and the host they were measured on.
#
# Everything the build writes stays under .bench_build in the repository.
set -euo pipefail
cd "$(dirname "$0")/.."

build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local
go build -C bench -o "$build/vbench" .

for arg in "$@"; do
	case "$arg" in
	-workload | --workload | -workload=* | --workload=* | -describe | --describe) exec "$build/vbench" "$@" ;;
	esac
done
# The pass comes after the caller's arguments: the last -trace wins.
"$build/vbench" "$@" -trace 0
"$build/vbench" "$@" -trace 1
