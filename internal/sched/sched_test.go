package sched

import (
	"math/rand"
	"testing"
	"time"
)

var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func at(d time.Duration) time.Time { return epoch.Add(d) }

func TestOrdering(t *testing.T) {
	// Each step pushes its items (seconds from the epoch) and then pops
	// the named payloads in order; the interleaved case pops between
	// pushes, so a later push must still sort ahead of earlier ones.
	type step struct {
		push []int
		pop  []int
	}
	for name, steps := range map[string][]step{
		"one batch":   {{push: []int{3, 1, 2}, pop: []int{1, 2, 3}}},
		"interleaved": {{push: []int{5, 1}, pop: []int{1}}, {push: []int{3, 2}, pop: []int{2, 3, 5}}},
	} {
		var s Heap
		if s.Pop() != nil {
			t.Errorf("%s: Pop on a fresh heap must return nil", name)
		}
		for _, st := range steps {
			for _, sec := range st.push {
				s.Push(at(time.Duration(sec)*time.Second), sec)
			}
			for _, want := range st.pop {
				if it := s.Pop(); it == nil || it.Payload.(int) != want {
					t.Fatalf("%s: Pop = %v, want %d", name, it, want)
				}
			}
		}
		if s.Pop() != nil {
			t.Errorf("%s: Pop on a drained heap must return nil", name)
		}
	}
}

func TestFIFOTieBreak(t *testing.T) {
	var s Heap
	for i := 0; i < 10; i++ {
		s.Push(at(time.Second), i)
	}
	for i := 0; i < 10; i++ {
		if got := s.Pop().Payload.(int); got != i {
			t.Fatalf("tie-break order: got %d, want %d", got, i)
		}
	}
}

func TestPopDue(t *testing.T) {
	var s Heap
	s.Push(at(time.Second), "early")
	s.Push(at(time.Minute), "late")
	if it := s.PopDue(at(0)); it != nil {
		t.Fatalf("PopDue before anything is due = %v", it)
	}
	if it := s.PopDue(at(time.Second)); it == nil || it.Payload != "early" {
		t.Fatalf("PopDue at the due instant = %v", it)
	}
	if it := s.PopDue(at(2 * time.Second)); it != nil {
		t.Fatalf("PopDue must not return the late item: %v", it)
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d, want 1", s.Len())
	}
}

func TestPeekDoesNotRemove(t *testing.T) {
	var s Heap
	if s.Peek() != nil || s.Len() != 0 {
		t.Error("a fresh heap must be empty: Peek nil, Len 0")
	}
	s.Push(at(time.Second), "x")
	if it := s.Peek(); it == nil || it.Payload != "x" {
		t.Fatalf("Peek = %v", it)
	}
	if s.Len() != 1 {
		t.Errorf("Peek removed the item")
	}
	if it := s.Pop(); it == nil || it.Payload != "x" {
		t.Errorf("Pop after Peek = %v", it)
	}
}

func TestRemove(t *testing.T) {
	if s := new(Heap); s.Remove(nil) {
		t.Error("Remove(nil) on an empty heap must return false")
	}
	// Removing the head, a middle item or the tail leaves the others in
	// order.
	for _, victim := range []string{"a", "b", "c"} {
		var s Heap
		items := map[string]*Item{}
		for i, name := range []string{"a", "b", "c"} {
			items[name] = s.Push(at(time.Duration(i+1)*time.Second), name)
		}
		if !s.Remove(items[victim]) {
			t.Fatalf("Remove(%s) of a pending item must return true", victim)
		}
		if s.Remove(items[victim]) {
			t.Errorf("second Remove(%s) must return false", victim)
		}
		var got, want string
		for it := s.Pop(); it != nil; it = s.Pop() {
			got += it.Payload.(string)
		}
		for _, name := range []string{"a", "b", "c"} {
			if name != victim {
				want += name
			}
		}
		if got != want {
			t.Errorf("after Remove(%s), Pop order = %q, want %q", victim, got, want)
		}
		if s.Remove(items["a"]) {
			t.Error("Remove of a popped item must return false")
		}
		if s.Remove(nil) {
			t.Error("Remove(nil) must return false")
		}
	}
}

func TestReschedule(t *testing.T) {
	var s Heap
	a := s.Push(at(time.Second), "a")
	s.Push(at(2*time.Second), "b")
	if !s.Reschedule(a, at(3*time.Second)) {
		t.Fatal("Reschedule of a pending item must return true")
	}
	if it := s.Pop(); it.Payload != "b" {
		t.Fatalf("after Reschedule, Pop = %v", it.Payload)
	}
	popped := s.Pop()
	if popped.Payload != "a" || !popped.At.Equal(at(3*time.Second)) {
		t.Errorf("rescheduled item = %v @ %v", popped.Payload, popped.At)
	}
	if s.Reschedule(popped, at(time.Second)) {
		t.Error("Reschedule of a popped item must return false")
	}
}

func TestRandomizedAgainstSort(t *testing.T) {
	// removals is how many random Remove calls precede the drain; the
	// drain must skip every removed item and stay in order.
	for _, removals := range []int{0, 800} {
		rng := rand.New(rand.NewSource(42))
		var s Heap
		const n = 2000
		items := make([]*Item, n)
		for i := range items {
			items[i] = s.Push(at(time.Duration(rng.Intn(1000))*time.Millisecond), i)
		}
		removed := map[*Item]bool{}
		for i := 0; i < removals; i++ {
			it := items[rng.Intn(n)]
			if s.Remove(it) == removed[it] {
				t.Fatalf("Remove of item %v reported pending=%v", it.Payload, removed[it])
			}
			removed[it] = true
		}
		var prev time.Time
		for i := 0; i < n-len(removed); i++ {
			it := s.Pop()
			if it == nil {
				t.Fatalf("heap exhausted at %d of %d", i, n-len(removed))
			}
			if removed[it] {
				t.Fatalf("popped removed item %v", it.Payload)
			}
			if i > 0 && it.At.Before(prev) {
				t.Fatalf("out of order: %v after %v", it.At, prev)
			}
			prev = it.At
		}
		if s.Len() != 0 {
			t.Errorf("%d items left after the drain", s.Len())
		}
	}
}

// TestAddOwnedItem: an Item embedded in the caller's record is scheduled
// with Add, reports Pending while on the heap, orders with pushed items,
// and can be added again once popped or removed — the life of a cache
// entry's refresh slot.
func TestAddOwnedItem(t *testing.T) {
	type record struct {
		name string
		item Item
	}
	var s Heap
	r := &record{name: "owned"}
	r.item.Payload = r
	if r.item.Pending() || s.Remove(&r.item) || s.Reschedule(&r.item, at(0)) {
		t.Fatal("a zero Item must not be pending")
	}
	s.Push(at(2*time.Second), "pushed")
	s.Add(&r.item, at(time.Second))
	if !r.item.Pending() || s.Len() != 2 {
		t.Fatalf("after Add: pending %v, Len %d", r.item.Pending(), s.Len())
	}
	if it := s.Pop(); it != &r.item || it.Payload.(*record) != r {
		t.Fatalf("Pop = %v, want the owned item", it)
	}
	if r.item.Pending() {
		t.Error("a popped item must not be pending")
	}
	s.Add(&r.item, at(3*time.Second))
	if !s.Reschedule(&r.item, at(time.Millisecond)) {
		t.Fatal("Reschedule of a re-added item must return true")
	}
	if it := s.Pop(); it != &r.item {
		t.Fatalf("Pop = %v, want the rescheduled owned item", it.Payload)
	}
	s.Add(&r.item, at(time.Hour))
	if !s.Remove(&r.item) || r.item.Pending() {
		t.Error("Remove of a re-added item must return true and leave it not pending")
	}
	if it := s.Pop(); it == nil || it.Payload != "pushed" || s.Len() != 0 {
		t.Errorf("the pushed item must be all that is left, got %v", it)
	}
}
