package core

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

func TestHarvestCacheMemoizesHarvest(t *testing.T) {
	c := NewHarvestCache()
	rec := fakeRecord()
	opt := HarvestAll()

	a := c.Harvest(rec, opt)
	b := c.Harvest(rec, opt)
	if a != b {
		t.Error("same (record, options) returned different set pointers")
	}
	if !reflect.DeepEqual(a, Harvest(rec, opt)) {
		t.Error("cached harvest differs from a direct harvest")
	}
	// Normalized and zero-tuned options share an entry.
	explicit := opt
	explicit.InsignificantFraction = 0.01
	explicit.ThresholdFloor = 0.05
	explicit.ThresholdCap = 0.30
	if c.Harvest(rec, explicit) != a {
		t.Error("explicit default tuning missed the cache")
	}
	// Different options are a different entry.
	narrow := HarvestOptions{GeneralPrunes: true}
	if c.Harvest(rec, narrow) == a {
		t.Error("different options shared an entry")
	}
	// A different record pointer is a different entry, even with equal
	// content: pointer identity is record identity.
	rec2 := fakeRecord()
	if c.Harvest(rec2, opt) == a {
		t.Error("distinct record pointers shared an entry")
	}
	hits, misses := c.Stats()
	if hits != 2 || misses != 3 {
		t.Errorf("stats = %d hits, %d misses; want 2, 3", hits, misses)
	}
}

func TestHarvestCacheMemoizesMappedAndCombined(t *testing.T) {
	c := NewHarvestCache()
	rec := fakeRecord()
	ds := c.Harvest(rec, HarvestAll())
	maps := []Mapping{{From: "/Code/oned.f", To: "/Code/twod.f"}}

	m1, err := c.Mapped(ds, maps)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := c.Mapped(ds, maps)
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Error("same (set, mappings) returned different pointers")
	}
	want, err := ApplyMappings(ds, maps)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m1, want) {
		t.Error("cached mapping differs from a direct ApplyMappings")
	}
	// A different mapping list is a different entry.
	m3, err := c.Mapped(ds, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m3 == m1 {
		t.Error("different mappings shared an entry")
	}

	and1 := c.Combine(true, ds, m1)
	and2 := c.Intersect(ds, m1)
	or1 := c.Combine(false, ds, m1)
	if and1 != and2 {
		t.Error("Combine not memoized")
	}
	if or1 == and1 {
		t.Error("A∪B and A∩B shared an entry")
	}
	if !reflect.DeepEqual(and1, Combine(true, ds, m1)) {
		t.Error("cached Combine differs from a direct Combine")
	}
	// Operand order matters to the key.
	if c.Intersect(m1, ds) == and1 {
		t.Error("swapped operands shared an entry")
	}
	// Three sets fold through the two-set entries, and one set is itself.
	if c.Combine(true, ds, m1, m3) != c.Combine(true, and1, m3) {
		t.Error("a three-set Combine did not fold through the two-set entries")
	}
	if c.Combine(false, ds) != ds {
		t.Error("Combine of one set is not that set")
	}
}

// TestHarvestCacheConcurrent exercises every cache surface from many
// goroutines; under -race this is the safety proof the issue asks for.
func TestHarvestCacheConcurrent(t *testing.T) {
	c := NewHarvestCache()
	rec := fakeRecord()
	other := fakeRecord()
	other.RunID = "run2"
	maps := []Mapping{{From: "/Code/oned.f", To: "/Code/twod.f"}}

	const workers = 8
	var wg sync.WaitGroup
	sets := make([]*DirectiveSet, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				ds := c.Harvest(rec, HarvestAll())
				if w%2 == 0 {
					ds2 := c.Harvest(other, HarvestOptions{GeneralPrunes: true, Priorities: true})
					c.Combine(true, ds, ds2)
					c.Combine(false, ds, ds2)
				}
				if _, err := c.Mapped(ds, maps); err != nil {
					t.Error(err)
				}
				if got, guide, err := c.Directives(c.Format(ds)); got != ds || guide != c.Guide(ds) || err != nil {
					t.Errorf("a formatted text came back as %p, %v", got, err)
				}
				sets[w] = ds
			}
		}()
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if sets[w] != sets[0] {
			t.Fatalf("worker %d saw a different harvested set", w)
		}
	}
	hits, misses := c.Stats()
	if misses == 0 || hits == 0 {
		t.Errorf("stats = %d hits, %d misses; want both non-zero", hits, misses)
	}
}

func BenchmarkHarvestUncached(b *testing.B) {
	rec := fakeRecord()
	opt := HarvestAll()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ds := Harvest(rec, opt); ds.Len() == 0 {
			b.Fatal("empty harvest")
		}
	}
}

func BenchmarkHarvestCached(b *testing.B) {
	rec := fakeRecord()
	opt := HarvestAll()
	c := NewHarvestCache()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ds := c.Harvest(rec, opt); ds.Len() == 0 {
			b.Fatal("empty harvest")
		}
	}
}

func BenchmarkHarvestCachedParallel(b *testing.B) {
	rec := fakeRecord()
	opt := HarvestAll()
	c := NewHarvestCache()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if ds := c.Harvest(rec, opt); ds.Len() == 0 {
				b.Fatal("empty harvest")
			}
		}
	})
}

func ExampleHarvestCache() {
	c := NewHarvestCache()
	rec := fakeRecord()
	first := c.Harvest(rec, HarvestAll())
	second := c.Harvest(rec, HarvestAll())
	hits, misses := c.Stats()
	fmt.Printf("same set: %v, hits %d, misses %d\n", first == second, hits, misses)
	// Output: same set: true, hits 1, misses 1
}
