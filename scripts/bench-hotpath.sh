#!/bin/sh
# Runs the hot-path benchmark suite (hit path, refresh scheduler, store
# replacement and eviction churn, push fan-out with and without
# payloads, delta encode and apply, value-push apply) with enough
# repetitions for benchgate's significance test, printing go test -bench
# output to stdout.
#
# Usage: scripts/bench-hotpath.sh [count]
set -eu
cd "$(dirname "$0")/.."
COUNT="${1:-6}"

# These report allocs/op themselves (b.ReportAllocs), so benchgate's
# alloc gate holds cold admission and the refresh schedule to their
# allocation budgets too.
go test -run '^$' -count "$COUNT" -benchtime 200ms \
    -bench 'BenchmarkProxyHitParallel$|BenchmarkProxyHitSingleObject$|BenchmarkProxyChurnParallel$|BenchmarkRefreshSchedulerThroughput$' .
# -benchmem so benchgate's alloc gate (-alloc-filter) can hold the
# publish, delta-encode and apply paths to their allocation budgets, not
# just their latency.
go test -run '^$' -count "$COUNT" -benchtime 200ms -benchmem \
    -bench 'BenchmarkStoreEvictScan$|BenchmarkStoreHitMark$|BenchmarkValuePushApply$' ./internal/webproxy
go test -run '^$' -count "$COUNT" -benchtime 200ms -benchmem \
    -bench 'BenchmarkHubPublishFanout$|BenchmarkHubPublishFanoutFiltered$|BenchmarkHubPublishFanoutPayload$|BenchmarkHubPublishFanoutDelta$|BenchmarkHubPublishContended$|BenchmarkHubReplayPartitioned$|BenchmarkEventRender$|BenchmarkDeltaApply$|BenchmarkMakeDelta$' ./internal/push
