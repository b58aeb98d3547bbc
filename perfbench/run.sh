#!/usr/bin/env bash
# Builds perfbench from the checkout it is run in and runs it. Run from the
# root of the checkout:
#
#   bash perfbench/run.sh --workload repro-cold --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh --spread 10 --workload repro-cold --seconds 30
#
# --spread k runs the workload in k separate processes (seeds 1..k) and
# prints each metric's median and interquartile distance.
#
# Everything the build and the runs write stays in .bench_build/ under the
# checkout: the Go build cache, the Go tool's temporary and configuration
# directories, the binary and the runs' scratch directories.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/config" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" XDG_CONFIG_HOME="$build/config" \
	GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd perfbench && go build -o "$build/perfbench" .)
if [ "${1:-}" = --spread ]; then
	k=$2
	shift 2
	out="$build/spread-$$.jsonl"
	: >"$out"
	for i in $(seq 1 "$k"); do
		"$build/perfbench" "$@" --seed "$i" | tail -n 1 >>"$out" || true
	done
	exec "$build/perfbench" --summarize "$out"
fi
exec "$build/perfbench" "$@"
