package core

import (
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/history"
)

// HarvestCache memoizes the directive pipeline: harvested sets per
// (record, options), mapped sets per (set, mappings), and combined sets
// per (rule, operand pair). The evaluation harness re-derives the
// same directives many times per study — Table 3 alone harvests each
// source record once per tuning row — and the store interns records
// (one decoded copy per key), so pointer identity is record identity
// and a pointer-keyed cache is exact.
//
// It also carries a set across the wire and back: Format remembers the
// text it wrote for a set, so a diagnose request carrying that text gets
// the set from Directives without a parse, and Guide compiles each set
// once for every session it steers.
//
// Cached sets are shared between callers and must be treated as
// read-only; Clone before mutating. All methods are safe for concurrent
// use.
type HarvestCache struct {
	harvests memo[harvestKey, *DirectiveSet]
	mapped   memo[mappedKey, *DirectiveSet]
	combined memo[combinedKey, *DirectiveSet]
	guides   memo[*DirectiveSet, *Guide] // not counted in Stats
	mu       sync.RWMutex
	texts    []*formatted // oldest first, at most maxTexts; guarded by mu
}

// memo is one map of the cache: a value computed once per key, the
// first one stored when two goroutines compute it at once, with its
// hits and misses. Its entries are written once and read many times,
// which is what a sync.Map is for.
type memo[K comparable, V any] struct {
	m            sync.Map // K to V
	hits, misses atomic.Uint64
}

// get returns the value kept for key, computing and keeping it on a
// miss. A compute that fails is returned, and nothing is kept or
// counted.
func (m *memo[K, V]) get(key K, compute func() (V, error)) (V, error) {
	if v, ok := m.m.Load(key); ok {
		m.hits.Add(1)
		return v.(V), nil
	}
	v, err := compute()
	if err != nil {
		return v, err
	}
	if prev, ok := m.m.LoadOrStore(key, v); ok {
		return prev.(V), nil // another goroutine computed it first; keep one copy
	}
	m.misses.Add(1)
	return v, nil
}

// maxTexts bounds the directive texts a cache remembers, a few hundred
// KB at most each: room for every set a workload steers sessions with at
// once, and a constant however many sets are harvested.
const maxTexts = 16

// formatted is a text Format wrote and the set it wrote it for. same
// says whether ParseDirectives reads the text back as that set, checked
// once, by the first request that carries the text.
type formatted struct {
	text  string
	ds    *DirectiveSet
	check sync.Once
	same  bool
}

// harvestKey identifies one harvest: the interned record and the
// normalized options (HarvestOptions is comparable; normalizing first
// makes zero and explicit-default tunings share an entry).
type harvestKey struct {
	rec *history.RunRecord
	opt HarvestOptions
}

// mappedKey identifies one ApplyMappings result by source-set pointer
// and the mappings' rendered text (order matters to MapPath, and the
// text preserves it).
type mappedKey struct {
	ds *DirectiveSet
	fp string
}

// combinedKey identifies one two-set Combine by rule and operand
// pointers.
type combinedKey struct {
	all  bool
	a, b *DirectiveSet
}

// NewHarvestCache creates an empty cache.
func NewHarvestCache() *HarvestCache { return &HarvestCache{} }

// Harvest returns the memoized Harvest(rec, opt). rec must be an
// interned record (one pointer per record identity, e.g. from a
// history.Store) for the memoization to be exact.
func (c *HarvestCache) Harvest(rec *history.RunRecord, opt HarvestOptions) *DirectiveSet {
	ds, _ := c.harvests.get(harvestKey{rec: rec, opt: opt.normalize()}, func() (*DirectiveSet, error) {
		return Harvest(rec, opt), nil
	})
	return ds
}

// Mapped returns the memoized ApplyMappings(ds, maps). Only successful
// applications are cached.
func (c *HarvestCache) Mapped(ds *DirectiveSet, maps []Mapping) (*DirectiveSet, error) {
	return c.mapped.get(mappedKey{ds: ds, fp: FormatMappings(maps)}, func() (*DirectiveSet, error) {
		return ApplyMappings(ds, maps)
	})
}

// Combine returns the memoized Combine(all, sets...) of one or more sets
// this cache returned, folded two at a time, which both rules allow: the
// same operands give back the same set, and one set is returned as it
// is.
func (c *HarvestCache) Combine(all bool, sets ...*DirectiveSet) *DirectiveSet {
	ds := sets[0]
	for _, b := range sets[1:] {
		a := ds
		ds, _ = c.combined.get(combinedKey{all: all, a: a, b: b}, func() (*DirectiveSet, error) {
			return Combine(all, a, b), nil
		})
	}
	return ds
}

// Intersect returns the memoized A∩B, Combine(true, a, b).
func (c *HarvestCache) Intersect(a, b *DirectiveSet) *DirectiveSet { return c.Combine(true, a, b) }

// Guide returns ds compiled, once: ds must be a set this cache returned,
// which nobody mutates.
func (c *HarvestCache) Guide(ds *DirectiveSet) *Guide {
	g, _ := c.guides.get(ds, func() (*Guide, error) { return ds.Compile(), nil })
	return g
}

// Format returns FormatDirectives(ds) for a set this cache returned and
// remembers the text as ds's, forgetting the oldest text beyond
// maxTexts. A set already remembered is not formatted again.
func (c *HarvestCache) Format(ds *DirectiveSet) string {
	c.mu.RLock()
	f := c.lookup(func(f *formatted) bool { return f.ds == ds })
	c.mu.RUnlock()
	if f != nil {
		return f.text
	}
	text := FormatDirectives(ds)
	c.mu.Lock()
	defer c.mu.Unlock()
	if f := c.lookup(func(f *formatted) bool { return f.ds == ds }); f != nil {
		return f.text
	}
	if len(c.texts) == maxTexts {
		c.texts = append(c.texts[:0], c.texts[1:]...)
	}
	c.texts = append(c.texts, &formatted{text: text, ds: ds})
	return text
}

// Directives returns the set a directive text spells, compiled. A text
// Format wrote gives back the set it was written for, once a parse has
// been seen to read the text as that set; any other text is parsed and
// compiled afresh, and nothing of it is kept.
func (c *HarvestCache) Directives(text string) (*DirectiveSet, *Guide, error) {
	c.mu.RLock()
	f := c.lookup(func(f *formatted) bool { return f.text == text })
	c.mu.RUnlock()
	if f != nil {
		f.check.Do(func() {
			parsed, err := ParseDirectives(strings.NewReader(text))
			f.same = err == nil && parsed.equal(f.ds)
		})
		if f.same {
			return f.ds, c.Guide(f.ds), nil
		}
	}
	ds, err := ParseDirectives(strings.NewReader(text))
	if err != nil {
		return nil, nil, err
	}
	return ds, ds.Compile(), nil
}

// lookup returns the remembered text match picks, or nil; c.mu must
// be held.
func (c *HarvestCache) lookup(match func(*formatted) bool) *formatted {
	for _, f := range c.texts {
		if match(f) {
			return f
		}
	}
	return nil
}

// Stats reports the hits and misses so far of the harvested, mapped and
// combined sets.
func (c *HarvestCache) Stats() (hits, misses uint64) {
	return c.harvests.hits.Load() + c.mapped.hits.Load() + c.combined.hits.Load(),
		c.harvests.misses.Load() + c.mapped.misses.Load() + c.combined.misses.Load()
}
