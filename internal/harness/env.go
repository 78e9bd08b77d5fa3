package harness

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/history"
)

// Env bundles the services the evaluation experiments run against: an
// experiment store that every produced run record is saved to and read
// back from, and a harvest cache that memoizes the directive pipeline
// (harvest, mapping, combination) across an experiment's repeated
// derivations. The paper's Section 5 describes this pairing — a
// Performance Consultant working from "a database of information about
// previous executions" — and routing the harness through it means the
// experiments exercise the same storage path the tools use.
//
// A nil-store Env (NewEnv(nil)) runs on an in-memory store: records
// still round-trip through the store's encoding, so results match a
// disk-backed Env byte for byte.
type Env struct {
	store history.Storage
	cache *core.HarvestCache
}

// NewEnv creates an experiment environment over st — a single durable
// Store or a ShardedStore, anything speaking history.Storage — or over
// a fresh in-memory store when st is nil.
func NewEnv(st history.Storage) *Env {
	if st == nil {
		st = history.NewMemStore()
	}
	return &Env{store: st, cache: core.NewHarvestCache()}
}

// Store returns the environment's experiment store.
func (e *Env) Store() history.Storage { return e.store }

// Cache returns the environment's harvest cache.
func (e *Env) Cache() *core.HarvestCache { return e.cache }

// Harvest is the memoized core.Harvest over the environment's cache;
// rec should be one of the store's interned records for the memoization
// to be exact.
func (e *Env) Harvest(rec *history.RunRecord, opt core.HarvestOptions) *core.DirectiveSet {
	return e.cache.Harvest(rec, opt)
}

// HarvestCombined harvests one or more interned records through the
// cache and combines the sets, A∩B when all is set and A∪B when not: the
// one fold HarvestRuns and a harvesting stream share.
func (e *Env) HarvestCombined(recs []*history.RunRecord, opt core.HarvestOptions, all bool) *core.DirectiveSet {
	sets := make([]*core.DirectiveSet, len(recs))
	for i, rec := range recs {
		sets[i] = e.cache.Harvest(rec, opt)
	}
	return e.cache.Combine(all, sets...)
}

// SaveResult persists a completed session's run record to the store and
// returns the interned stored copy — the pointer every subsequent
// harvest and comparison should use.
func (e *Env) SaveResult(res *SessionResult) (*history.RunRecord, error) {
	return e.saveRecord(res.Record)
}

// HarvestRuns is the full directive pipeline the tools and the
// diagnosis service share: load each VERSION:RUNID reference of app from
// the store, harvest a directive set from each, fold them together
// ("and" intersects, "or" unions; one ref needs no combining), and —
// when mapTo names a target run — infer resource mappings from the
// first source toward it and rewrite the combined set into the target's
// namespace. It returns the final set and the inferred mappings (nil
// when mapTo is empty). Every stage is memoized by the environment's
// cache.
func (e *Env) HarvestRuns(app string, refs []string, opt core.HarvestOptions, combine, mapTo string) (*core.DirectiveSet, []core.Mapping, error) {
	if len(refs) == 0 {
		return nil, nil, fmt.Errorf("harness: no source runs to harvest")
	}
	switch combine {
	case "", "and", "or":
	default:
		return nil, nil, fmt.Errorf("harness: unknown combine %q (want and|or)", combine)
	}
	recs := make([]*history.RunRecord, len(refs))
	for i, ref := range refs {
		key, err := history.ParseRunKey(app, strings.TrimSpace(ref))
		if err != nil {
			return nil, nil, err
		}
		rec, err := e.store.Load(key.App, key.Version, key.RunID)
		if err != nil {
			return nil, nil, err
		}
		recs[i] = rec
	}
	ds := e.HarvestCombined(recs, opt, combine != "or")
	if mapTo == "" {
		return ds, nil, nil
	}
	key, err := history.ParseRunKey(app, mapTo)
	if err != nil {
		return nil, nil, err
	}
	target, err := e.store.Load(key.App, key.Version, key.RunID)
	if err != nil {
		return nil, nil, err
	}
	maps := core.InferMappings(recs[0].Resources, target.Resources)
	ds, err = e.cache.Mapped(ds, maps)
	if err != nil {
		return nil, nil, err
	}
	return ds, maps, nil
}

// saveRecord persists rec to the store and returns the store's interned
// copy. Experiments harvest from the returned record, never the
// original: every directive is derived from data that completed a
// save/load round trip, and the interned pointer makes the harvest
// cache exact.
func (e *Env) saveRecord(rec *history.RunRecord) (*history.RunRecord, error) {
	if err := e.store.Save(rec); err != nil {
		return nil, err
	}
	return e.store.Load(rec.App, rec.Version, rec.RunID)
}
