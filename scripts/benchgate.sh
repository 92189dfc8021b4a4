#!/bin/sh
# Runs the hot-path benchmarks and compares them against the committed
# baseline (bench/baseline.txt) with benchgate. The threshold is
# deliberately loose (+50% median) because the baseline was recorded on
# a different machine than yours; for a tight same-machine comparison
# use two bench-hotpath.sh runs and cmd/benchgate directly.
set -eu
cd "$(dirname "$0")/.."
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT
scripts/bench-hotpath.sh "${1:-6}" > "$tmp"
go run ./cmd/benchgate -old bench/baseline.txt -new "$tmp" -threshold 0.5 -alloc-filter 'BenchmarkHubPublish|BenchmarkMakeDelta|BenchmarkValuePushApply'
