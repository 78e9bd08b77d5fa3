package core

import (
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/history"
)

// HarvestCache memoizes the directive pipeline: harvested sets per
// (record, options), mapped sets per (set, mappings), and combined sets
// per (operator, operand pair). The evaluation harness re-derives the
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
	mu       sync.RWMutex
	harvests map[harvestKey]*DirectiveSet
	mapped   map[mappedKey]*DirectiveSet
	combined map[combinedKey]*DirectiveSet
	guides   map[*DirectiveSet]*Guide
	texts    []*formatted // oldest first, at most maxTexts
	hits     atomic.Uint64
	misses   atomic.Uint64
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

// combinedKey identifies one Intersect or Union result by operator and
// operand pointers.
type combinedKey struct {
	op   string
	a, b *DirectiveSet
}

// NewHarvestCache creates an empty cache.
func NewHarvestCache() *HarvestCache {
	return &HarvestCache{
		harvests: make(map[harvestKey]*DirectiveSet),
		mapped:   make(map[mappedKey]*DirectiveSet),
		combined: make(map[combinedKey]*DirectiveSet),
		guides:   make(map[*DirectiveSet]*Guide),
	}
}

// Harvest returns the memoized Harvest(rec, opt). rec must be an
// interned record (one pointer per record identity, e.g. from a
// history.Store) for the memoization to be exact.
func (c *HarvestCache) Harvest(rec *history.RunRecord, opt HarvestOptions) *DirectiveSet {
	key := harvestKey{rec: rec, opt: opt.normalize()}
	c.mu.RLock()
	ds, ok := c.harvests[key]
	c.mu.RUnlock()
	if ok {
		c.hits.Add(1)
		return ds
	}
	ds = Harvest(rec, opt)
	c.mu.Lock()
	if prev, ok := c.harvests[key]; ok {
		ds = prev // another goroutine computed it first; keep one copy
	} else {
		c.harvests[key] = ds
		c.misses.Add(1)
	}
	c.mu.Unlock()
	return ds
}

// Mapped returns the memoized ApplyMappings(ds, maps). Only successful
// applications are cached.
func (c *HarvestCache) Mapped(ds *DirectiveSet, maps []Mapping) (*DirectiveSet, error) {
	key := mappedKey{ds: ds, fp: FormatMappings(maps)}
	c.mu.RLock()
	out, ok := c.mapped[key]
	c.mu.RUnlock()
	if ok {
		c.hits.Add(1)
		return out, nil
	}
	out, err := ApplyMappings(ds, maps)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if prev, ok := c.mapped[key]; ok {
		out = prev
	} else {
		c.mapped[key] = out
		c.misses.Add(1)
	}
	c.mu.Unlock()
	return out, nil
}

// Intersect returns the memoized Intersect(a, b).
func (c *HarvestCache) Intersect(a, b *DirectiveSet) *DirectiveSet {
	return c.combine("and", a, b, Intersect)
}

// Union returns the memoized Union(a, b).
func (c *HarvestCache) Union(a, b *DirectiveSet) *DirectiveSet {
	return c.combine("or", a, b, Union)
}

func (c *HarvestCache) combine(op string, a, b *DirectiveSet, fn func(a, b *DirectiveSet) *DirectiveSet) *DirectiveSet {
	key := combinedKey{op: op, a: a, b: b}
	c.mu.RLock()
	ds, ok := c.combined[key]
	c.mu.RUnlock()
	if ok {
		c.hits.Add(1)
		return ds
	}
	ds = fn(a, b)
	c.mu.Lock()
	if prev, ok := c.combined[key]; ok {
		ds = prev
	} else {
		c.combined[key] = ds
		c.misses.Add(1)
	}
	c.mu.Unlock()
	return ds
}

// Guide returns ds compiled, once: ds must be a set this cache returned,
// which nobody mutates.
func (c *HarvestCache) Guide(ds *DirectiveSet) *Guide {
	c.mu.RLock()
	g, ok := c.guides[ds]
	c.mu.RUnlock()
	if ok {
		return g
	}
	g = ds.Compile()
	c.mu.Lock()
	if prev, ok := c.guides[ds]; ok {
		g = prev
	} else {
		c.guides[ds] = g
	}
	c.mu.Unlock()
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

// Stats reports cache hits and misses so far.
func (c *HarvestCache) Stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}
