package sim

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"unsafe"
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

// hasPointer reports whether a value of t holds a pointer the garbage
// collector follows.
func hasPointer(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Array:
		return hasPointer(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointer(t.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Chan, reflect.Func,
		reflect.Interface, reflect.Slice, reflect.String:
		return true
	}
	return false
}

// An event names its processes by rank and its channel by id, so the
// queue's backing array holds no pointer: the collector does not scan
// it, and a popped slot keeps nothing reachable.
func TestEventHoldsNoPointer(t *testing.T) {
	typ := reflect.TypeOf(event{})
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); hasPointer(f.Type) {
			t.Errorf("event.%s is a %s, which holds a pointer", f.Name, f.Type)
		}
	}
}

// An Interval is copied to every observer: its labels are one shared
// pointer, and the rest is numbers, within one cache line.
func TestIntervalIsOnePointerAndNumbers(t *testing.T) {
	if n := unsafe.Sizeof(Interval{}); n > 64 {
		t.Errorf("Interval is %d bytes, want at most 64", n)
	}
	typ := reflect.TypeOf(Interval{})
	var pointers []string
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); hasPointer(f.Type) {
			pointers = append(pointers, f.Name)
		}
	}
	if len(pointers) != 1 || pointers[0] != "Labels" {
		t.Errorf("Interval's fields holding pointers are %v, want only Labels", pointers)
	}
}
