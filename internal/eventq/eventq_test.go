// Package eventq_test checks the simulator's event queue: the sched.Heap
// that internal/sim orders simulated events on, keyed as sim keys it
// (each simulated instant t as time.Unix(0, int64(t)), read back with
// UnixNano). The queue itself lives in internal/sched; these tests pin
// its contract in simulated time — nondecreasing order, FIFO for equal
// instants, and removal — and that the keying round-trips every instant.
package eventq_test

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"broadway/internal/sched"
	"broadway/internal/simtime"
)

// queue is sched.Heap with the simulator's keying of simulated instants.
type queue struct{ h sched.Heap }

func (q *queue) Len() int { return q.h.Len() }

func (q *queue) Push(at simtime.Time, payload any) *sched.Item {
	return q.h.Push(time.Unix(0, int64(at)), payload)
}

func (q *queue) Pop() *sched.Item           { return q.h.Pop() }
func (q *queue) Peek() *sched.Item          { return q.h.Peek() }
func (q *queue) Remove(it *sched.Item) bool { return q.h.Remove(it) }
func instant(it *sched.Item) simtime.Time   { return simtime.Time(it.At.UnixNano()) }
func at(d time.Duration) simtime.Time       { return simtime.At(d) }

func TestEmptyQueue(t *testing.T) {
	var q queue
	if q.Len() != 0 {
		t.Error("fresh queue not empty")
	}
	if q.Pop() != nil {
		t.Error("Pop on empty queue must return nil")
	}
	if q.Peek() != nil {
		t.Error("Peek on empty queue must return nil")
	}
}

func TestPopOrderByTime(t *testing.T) {
	var q queue
	q.Push(at(3*time.Second), "c")
	q.Push(at(1*time.Second), "a")
	q.Push(at(2*time.Second), "b")

	var got []string
	for it := q.Pop(); it != nil; it = q.Pop() {
		got = append(got, it.Payload.(string))
	}
	want := []string{"a", "b", "c"}
	if len(got) != len(want) {
		t.Fatalf("order = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestFIFOForEqualTimes(t *testing.T) {
	var q queue
	const n = 50
	for i := 0; i < n; i++ {
		q.Push(at(time.Second), i)
	}
	for i := 0; i < n; i++ {
		it := q.Pop()
		if it.Payload.(int) != i {
			t.Fatalf("tie-break not FIFO: got %d at position %d", it.Payload, i)
		}
	}
}

func TestPeekDoesNotRemove(t *testing.T) {
	var q queue
	q.Push(at(time.Second), "x")
	if q.Peek().Payload.(string) != "x" {
		t.Fatal("Peek wrong item")
	}
	if q.Len() != 1 {
		t.Fatal("Peek must not remove")
	}
	if q.Pop().Payload.(string) != "x" {
		t.Fatal("Pop after Peek wrong item")
	}
}

func TestRemove(t *testing.T) {
	var q queue
	a := q.Push(at(1*time.Second), "a")
	b := q.Push(at(2*time.Second), "b")
	c := q.Push(at(3*time.Second), "c")

	if !q.Remove(b) {
		t.Fatal("Remove of pending item must return true")
	}
	if q.Remove(b) {
		t.Fatal("second Remove must return false")
	}
	if q.Len() != 2 {
		t.Fatalf("Len = %d after remove", q.Len())
	}
	if got := q.Pop(); got != a {
		t.Fatalf("first pop = %v", got.Payload)
	}
	if got := q.Pop(); got != c {
		t.Fatalf("second pop = %v", got.Payload)
	}
	if q.Remove(a) {
		t.Fatal("Remove of already-popped item must return false")
	}
	if q.Remove(nil) {
		t.Fatal("Remove(nil) must return false")
	}
}

func TestRemoveHead(t *testing.T) {
	var q queue
	a := q.Push(at(1*time.Second), "a")
	q.Push(at(2*time.Second), "b")
	if !q.Remove(a) {
		t.Fatal("Remove head failed")
	}
	if q.Pop().Payload.(string) != "b" {
		t.Fatal("wrong item after removing head")
	}
}

func TestInterleavedPushPop(t *testing.T) {
	var q queue
	q.Push(at(5*time.Second), 5)
	q.Push(at(1*time.Second), 1)
	if got := q.Pop().Payload.(int); got != 1 {
		t.Fatalf("got %d", got)
	}
	q.Push(at(3*time.Second), 3)
	q.Push(at(2*time.Second), 2)
	for _, want := range []int{2, 3, 5} {
		if got := q.Pop().Payload.(int); got != want {
			t.Fatalf("got %d, want %d", got, want)
		}
	}
}

func TestPropertyDequeueSorted(t *testing.T) {
	f := func(times []uint32) bool {
		var q queue
		for _, v := range times {
			q.Push(simtime.Time(v), v)
		}
		prev := simtime.Time(-1)
		for it := q.Pop(); it != nil; it = q.Pop() {
			if instant(it) < prev || instant(it) != simtime.Time(it.Payload.(uint32)) {
				return false
			}
			prev = instant(it)
		}
		return q.Len() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyMatchesSort(t *testing.T) {
	f := func(times []uint16) bool {
		var q queue
		for _, v := range times {
			q.Push(simtime.Time(v), nil)
		}
		want := make([]simtime.Time, len(times))
		for i, v := range times {
			want[i] = simtime.Time(v)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := 0; i < len(want); i++ {
			if got := q.Pop(); instant(got) != want[i] {
				return false
			}
		}
		return q.Len() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRandomRemovalsKeepOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var q queue
	var items []*sched.Item
	for i := 0; i < 500; i++ {
		items = append(items, q.Push(simtime.Time(rng.Intn(1000)), i))
	}
	removed := map[*sched.Item]bool{}
	for i := 0; i < 200; i++ {
		it := items[rng.Intn(len(items))]
		if !removed[it] {
			if !q.Remove(it) {
				t.Fatal("remove of pending item failed")
			}
			removed[it] = true
		}
	}
	prev := simtime.Time(-1)
	count := 0
	for it := q.Pop(); it != nil; it = q.Pop() {
		if removed[it] {
			t.Fatal("popped a removed item")
		}
		if instant(it) < prev {
			t.Fatal("ordering violated after removals")
		}
		prev = instant(it)
		count++
	}
	if count != 500-len(removed) {
		t.Fatalf("popped %d items, want %d", count, 500-len(removed))
	}
}
