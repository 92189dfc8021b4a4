package webserver

import (
	"time"

	"broadway/internal/push"
)

// This file wires the origin onto the push package's broadcast hub: an
// SSE-style endpoint streaming per-object update events to downstream
// proxies. Every Set on a push-enabled origin assigns the update a
// monotonically increasing sequence number, fans it out to connected
// subscribers, and records it in a bounded replay buffer so a
// reconnecting subscriber (?since=<seq>) receives exactly the events it
// missed. When the gap exceeds the buffer, the hello frame carries
// Reset, telling the proxy to fall back to a revalidation sweep.
//
// Every event also carries the object's new body in its optional
// trailing fields, so the hub's replay ring is byte-budgeted as well as
// count-bounded. Delivery walks the value ladder per subscriber — delta
// against an advertised held body, full payload, chunk set at
// push.DefaultPayloadCap, invalidation-only — so a body degrades one
// rung at a time instead of straight to a poll.
//
// The hub itself (sequence space, replay ring, slow-subscriber
// termination, per-subscriber lag accounting, frame write deadlines,
// rung choice) lives in internal/push as push.Hub — the same
// machinery a relaying proxy runs for its own downstream face — so the
// origin side here is only construction; the hub's counters reach
// callers through Origin.Stats (its Hub field) and Origin.PushHubStats.

// defaultHeartbeat is the interval between keepalive frames.
const defaultHeartbeat = push.DefaultHeartbeat

func newEventHub(heartbeat time.Duration) *push.Hub {
	return push.NewHub(push.HubConfig{Heartbeat: heartbeat})
}
