#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from
# the repository root:
#
#   bash perfbench/run.sh --workload paper_repro --seed 1 --seconds 20 --trace 0
#
# Everything it writes — the Go build cache, the binary, scratch files and
# span dumps — goes under .bench_build/perfbench in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
# Not exec: an exec'd process would inherit this shell's rusage, and the
# compiler's high-water RSS would show up in peak_rss_mb.
"$out/perfbench" -out "$out" "$@"
