package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// The queue must pop in the strict (at, seq) order whatever order the
// events went in, including many events at one instant: the simulator's
// determinism rests on it.
func TestEventQueuePopsInSortedOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 10_000
	var q eventQueue
	want := make([]event, 0, n)
	for i := 0; i < n; i++ {
		// A coarse clock: ~10 events share each timestamp.
		e := event{at: float64(rng.Intn(n / 10)), seq: int64(i + 1)}
		want = append(want, e)
		q.push(e)
		// Interleave pops so the heap is exercised at every size.
		if rng.Intn(4) == 0 {
			q.push(q.pop())
		}
	}
	sort.Slice(want, func(i, j int) bool { return want[i].before(want[j]) })
	for i, w := range want {
		if got := q.pop(); got.at != w.at || got.seq != w.seq {
			t.Fatalf("pop %d = (%v, %d), want (%v, %d)", i, got.at, got.seq, w.at, w.seq)
		}
	}
	if len(q) != 0 {
		t.Fatalf("%d events left after popping all", len(q))
	}
}

// An executed event names its processes and channel; the queue must not
// keep them reachable from the backing array.
func TestEventQueuePopClearsVacatedSlot(t *testing.T) {
	var q eventQueue
	for i := 0; i < 100; i++ {
		q.push(event{at: float64(100 - i), seq: int64(i + 1), p: &Process{}, ch: &channel{}})
	}
	for len(q) > 0 {
		q.pop()
	}
	for i, e := range q[:cap(q)] {
		if e != (event{}) {
			t.Fatalf("slot %d of the backing array still holds %+v", i, e)
		}
	}
}
