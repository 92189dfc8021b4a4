// Package sched implements the time-ordered min-heap behind both of the
// repository's clocks: the live proxy orders its background refreshes
// on it, and internal/sim orders simulated events on it (keying each
// simulated instant as a Unix-epoch time.Time). Items are keyed by the
// instant they become due, ties break in insertion order, which makes
// every simulation run deterministic, and Peek/PopDue give the proxy's
// dispatcher O(log n) access to the next due refresh instead of an O(n)
// scan over every cached object.
//
// An Item may live inside the caller's own record (Add), so a scheduled
// object costs no allocation beyond its record; Push allocates one for
// callers that hold none.
//
// A Heap is not safe for concurrent use; the proxy guards it with its
// scheduler mutex, and the simulator is single-threaded.
package sched

import (
	"container/heap"
	"time"
)

// Item is one scheduled refresh. Its zero value is not pending.
type Item struct {
	// At is the instant the item becomes due.
	At time.Time
	// Payload is the caller's data (the proxy stores its cache entry).
	Payload any

	seq uint64 // insertion order, breaks ties deterministically
	pos int    // position in the heap plus one; 0 while not pending
}

// Pending reports whether the item is on a heap: added or pushed, and
// not yet popped or removed.
func (it *Item) Pending() bool { return it.pos > 0 }

// Heap is a time-ordered schedule. The zero value is ready to use.
type Heap struct {
	h       itemHeap
	nextSeq uint64
}

// Len returns the number of pending items.
func (s *Heap) Len() int { return len(s.h) }

// Push schedules payload at the given instant and returns a handle that
// can later be passed to Remove or Reschedule.
func (s *Heap) Push(at time.Time, payload any) *Item {
	it := &Item{Payload: payload}
	s.Add(it, at)
	return it
}

// Add schedules it, which the caller owns and must not be pending, at the
// given instant; its Payload is left as the caller set it. Once popped or
// removed, it may be added again.
func (s *Heap) Add(it *Item, at time.Time) {
	it.At, it.seq = at, s.nextSeq
	s.nextSeq++
	heap.Push(&s.h, it)
}

// Peek returns the earliest item without removing it, or nil when empty.
func (s *Heap) Peek() *Item {
	if len(s.h) == 0 {
		return nil
	}
	return s.h[0]
}

// Pop removes and returns the earliest item, or nil when empty.
func (s *Heap) Pop() *Item {
	if len(s.h) == 0 {
		return nil
	}
	return heap.Pop(&s.h).(*Item)
}

// PopDue removes and returns the earliest item if it is due at now
// (At <= now); otherwise it returns nil and leaves the heap untouched.
func (s *Heap) PopDue(now time.Time) *Item {
	if len(s.h) == 0 || s.h[0].At.After(now) {
		return nil
	}
	return heap.Pop(&s.h).(*Item)
}

// Remove cancels a previously pushed item. It reports whether the item
// was still pending; removing twice is safe and returns false.
func (s *Heap) Remove(it *Item) bool {
	if !s.holds(it) {
		return false
	}
	heap.Remove(&s.h, it.pos-1)
	return true
}

// Reschedule moves a pending item to a new instant, restoring heap order
// in O(log n). It reports whether the item was still pending.
func (s *Heap) Reschedule(it *Item, at time.Time) bool {
	if !s.holds(it) {
		return false
	}
	it.At = at
	heap.Fix(&s.h, it.pos-1)
	return true
}

// holds reports whether it is pending on this heap.
func (s *Heap) holds(it *Item) bool {
	return it != nil && it.pos > 0 && it.pos <= len(s.h) && s.h[it.pos-1] == it
}

// itemHeap implements heap.Interface ordered by (At, seq).
type itemHeap []*Item

var _ heap.Interface = (*itemHeap)(nil)

func (h itemHeap) Len() int { return len(h) }

func (h itemHeap) Less(i, j int) bool {
	if !h[i].At.Equal(h[j].At) {
		return h[i].At.Before(h[j].At)
	}
	return h[i].seq < h[j].seq
}

func (h itemHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].pos = i + 1
	h[j].pos = j + 1
}

func (h *itemHeap) Push(x any) {
	it := x.(*Item)
	*h = append(*h, it)
	it.pos = len(*h)
}

func (h *itemHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	it.pos = 0
	*h = old[:n-1]
	return it
}
