#!/bin/sh
# Boots mcproxy -demo with the operational surface on its own listener,
# waits for /healthz to report ok (the push channel connects in well
# under a second), validates the /metrics exposition with the strict
# in-repo parser (cmd/opscheck), exercises the serve path once, and
# re-scrapes; one object fits in memory, so a second one demotes the
# first to the disk tier, and the first's next request must come back as
# a promotion the live lease answers. A second proxy, with room for a
# whole consistency group, then waits for the demo origin's next group
# update: the sibling the lease carries must be vouched for by the
# channel, not polled, and the update must install from its payload with
# no pushed job falling back to a poll. Fails on any non-200 probe, unparseable
# exposition, a family list that differs from
# internal/ops/testdata/families.golden, or missing counter. Builds into
# $TMPDIR (default /tmp).
set -eu
cd "$(dirname "$0")/.."

LISTEN="${LISTEN:-127.0.0.1:18089}"
OPS="${OPS:-127.0.0.1:19089}"
BIN="${TMPDIR:-/tmp}"

go build -o "$BIN/mcproxy-ops-smoke" ./cmd/mcproxy
go build -o "$BIN/opscheck-ops-smoke" ./cmd/opscheck

DISK="$(mktemp -d)"
PROXY_PID=
trap 'kill "$PROXY_PID" 2>/dev/null || true; rm -rf "$DISK"' EXIT INT TERM

# start <flags>: boots the demo proxy with push and the ops listener and
# polls /healthz, which is 503 until the push subscription connects.
start() {
  "$BIN/mcproxy-ops-smoke" -demo -push -relay-events \
    -listen "$LISTEN" -ops-listen "$OPS" -run-for 60s "$@" &
  PROXY_PID=$!
  i=0
  until curl -fsS "http://$OPS/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -ge 100 ]; then
      echo "ops-smoke: /healthz never reported ok" >&2
      curl -sS "http://$OPS/healthz" >&2 || true
      exit 1
    fi
    sleep 0.1
  done
  echo "ops-smoke: /healthz ok"
}

start -max-objects 1 -disk-dir "$DISK"
curl -fsS "http://$OPS/metrics" | "$BIN/opscheck-ops-smoke"
# This node runs every component, so it must emit exactly the families
# of the stable-name contract.
curl -fsS "http://$OPS/metrics" | grep '^# TYPE ' | LC_ALL=C sort |
  diff internal/ops/testdata/families.golden - || {
  echo "ops-smoke: /metrics families differ from internal/ops/testdata/families.golden" >&2
  exit 1
}

# Drive the serve path once and confirm the scrape still validates (and
# the traffic is visible in it).
curl -fsS "http://$LISTEN/news/story.html" >/dev/null
curl -fsS -I "http://$LISTEN/news/story.html" >/dev/null  # HEAD conformance
curl -fsS "http://$OPS/metrics" | "$BIN/opscheck-ops-smoke"
curl -fsS "http://$OPS/metrics" | grep -q '^broadway_cache_misses_total [1-9]' || {
  echo "ops-smoke: proxied traffic not visible in the scrape" >&2
  exit 1
}
curl -fsS "http://$LISTEN/news/photo.jpg" >/dev/null   # demotes the story
curl -fsS "http://$LISTEN/news/story.html" >/dev/null  # promotes it
curl -fsS "http://$OPS/metrics" | grep -q '^broadway_disk_leased_promotions_total [1-9]' || {
  echo "ops-smoke: the demoted object was not promoted under the lease" >&2
  curl -fsS "http://$OPS/metrics" | grep '^broadway_disk_' >&2 || true
  exit 1
}
kill "$PROXY_PID"
wait "$PROXY_PID" 2>/dev/null || true

# Both members of the demo's "frontpage" group resident: its next update
# (every 7 s) reaches each through the channel, and §3.2 triggering finds
# the other one carried by the lease.
start
curl -fsS "http://$LISTEN/news/story.html" >/dev/null
curl -fsS "http://$LISTEN/news/photo.jpg" >/dev/null
i=0
until curl -fs "http://$OPS/metrics" | grep -q '^broadway_group_channel_syncs_total [1-9]'; do
  i=$((i + 1))
  if [ "$i" -ge 150 ]; then
    echo "ops-smoke: the channel vouched for no group sibling within 15 s" >&2
    curl -fsS "http://$OPS/metrics" | grep -E '^broadway_(group_channel_syncs|polls)_total' >&2 || true
    exit 1
  fi
  sleep 0.1
done
curl -fsS "http://$OPS/metrics" | "$BIN/opscheck-ops-smoke"
# Ladder health: every demo event carries its body, so the update
# installed from its payload and no pushed job fell back to a poll.
METRICS="$(curl -fsS "http://$OPS/metrics")"
if ! echo "$METRICS" | grep -q '^broadway_push_value_applied_total [1-9]' ||
  ! echo "$METRICS" | grep -q '^broadway_push_value_fallbacks_total 0$'; then
  echo "ops-smoke: the group update did not install from its payload alone" >&2
  echo "$METRICS" | grep -E '^broadway_push_value_(applied|fallbacks)_total' >&2 || true
  exit 1
fi
echo "ops-smoke: pass"
