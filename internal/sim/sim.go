// Package sim provides the discrete-event simulation engine used by the
// proxy/origin evaluation. The engine mirrors the paper's methodology
// (§6.1.1): a single logical clock, events processed in timestamp order,
// and a fixed network latency between proxy and servers.
//
// The engine is deliberately single-goroutine: determinism is a design
// requirement so that every experiment is exactly reproducible from its
// seed. All concurrency in this repository lives at the edges (the live
// HTTP proxy in internal/webproxy), never inside the simulator.
package sim

import (
	"errors"
	"fmt"
	"time"

	"broadway/internal/sched"
	"broadway/internal/simtime"
)

// Event is a unit of work scheduled on the engine.
type Event interface {
	// Fire runs the event at its scheduled instant. The engine passes
	// itself so events can schedule follow-up work.
	Fire(e *Engine)
}

// EventFunc adapts a plain function to the Event interface.
type EventFunc func(e *Engine)

// Fire implements Event.
func (f EventFunc) Fire(e *Engine) { f(e) }

var _ Event = (EventFunc)(nil)

// ErrStopped is returned by Run when the simulation was halted via Stop
// before the horizon or event exhaustion.
var ErrStopped = errors.New("sim: stopped")

// Handle identifies a scheduled event so it can be cancelled.
type Handle struct {
	item *sched.Item
}

// Engine is a deterministic discrete-event scheduler. The zero value is
// ready to use, with the clock at the simulation epoch.
type Engine struct {
	queue   sched.Heap // keyed on the instant as a Unix-epoch time.Time
	now     simtime.Time
	stopped bool

	// Latency is the fixed one-way network latency applied by helpers
	// such as AfterLatency. The paper's simulator assumes a fixed
	// latency; zero is a valid choice and the default.
	Latency time.Duration

	processed uint64
}

// New returns an engine with the given fixed network latency.
func New(latency time.Duration) *Engine {
	return &Engine{Latency: latency}
}

// Now returns the current simulated instant.
func (e *Engine) Now() simtime.Time { return e.now }

// Processed returns the number of events fired so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns the number of scheduled events not yet fired.
func (e *Engine) Pending() int { return e.queue.Len() }

// ScheduleAt schedules ev to fire at the absolute instant at. Scheduling
// in the past (before Now) panics: it always indicates a logic error and
// would silently corrupt causality if allowed.
func (e *Engine) ScheduleAt(at simtime.Time, ev Event) Handle {
	if at.Before(e.now) {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	return Handle{item: e.queue.Push(time.Unix(0, int64(at)), ev)}
}

// ScheduleAfter schedules ev to fire d after the current instant.
// Negative d is treated as zero.
func (e *Engine) ScheduleAfter(d time.Duration, ev Event) Handle {
	if d < 0 {
		d = 0
	}
	return e.ScheduleAt(e.now.Add(d), ev)
}

// AfterLatency schedules ev one network latency from now. It models a
// message that must cross the network before its effect is visible.
func (e *Engine) AfterLatency(ev Event) Handle {
	return e.ScheduleAfter(e.Latency, ev)
}

// Cancel removes a previously scheduled event. It reports whether the
// event was still pending.
func (e *Engine) Cancel(h Handle) bool { return e.queue.Remove(h.item) }

// Stop halts the run loop after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// Run processes events in timestamp order until the queue is empty or the
// next event lies beyond the horizon. Events exactly at the horizon still
// fire ([epoch, horizon] inclusive); the clock never advances past it.
// Run returns ErrStopped if Stop was called, else nil.
func (e *Engine) Run(horizon simtime.Time) error {
	e.stopped = false
	for {
		if e.stopped {
			return ErrStopped
		}
		head := e.queue.Peek()
		if head == nil || instant(head).After(horizon) {
			e.now = simtime.Max(e.now, horizon)
			return nil
		}
		it := e.queue.Pop()
		e.now = instant(it)
		e.processed++
		it.Payload.(Event).Fire(e)
	}
}

// RunFor is shorthand for Run(Now().Add(d)).
func (e *Engine) RunFor(d time.Duration) error {
	return e.Run(e.now.Add(d))
}

// Step fires exactly one event (the earliest pending one) and reports
// whether an event was fired. It is primarily useful in tests.
func (e *Engine) Step() bool {
	it := e.queue.Pop()
	if it == nil {
		return false
	}
	e.now = instant(it)
	e.processed++
	it.Payload.(Event).Fire(e)
	return true
}

// instant returns the simulated instant a queued item fires at.
func instant(it *sched.Item) simtime.Time { return simtime.Time(it.At.UnixNano()) }
