package core

import (
	"slices"

	"repro/internal/consultant"
)

// Combine implements the paper's A∩B (all) and A∪B (any) over one or
// more sets as one count: per prune, per (hypothesis : focus) level and per
// threshold, how many sets carry the entry. need is len(sets) for all and
// 1 for any:
//
//   - a prune is kept when need sets carry it;
//   - a pair takes the highest level need sets give it, so under all a
//     pair is High (or Low) only if every set says so, and under any
//     High wins over Low;
//   - a threshold takes the need-th smallest of its values: the
//     conservative max under all, the sensitive min under any.
//
// A set counts once per entry: one that lists a prune, pair or threshold
// twice counts its last, as Compile keeps it. Both rules are
// associative, so Combine equals the two-at-a-time fold, whose label
// Source spells; two anonymous inputs stay anonymous.
func Combine(all bool, sets ...*DirectiveSet) *DirectiveSet {
	need, op := 1, "∪"
	if all {
		need, op = len(sets), "∩"
	}
	out := &DirectiveSet{Source: sets[0].Source}
	var prunes tallies[Prune, struct{}]
	var levels tallies[pair, consultant.Priority]
	var values tallies[string, float64]
	for i, ds := range sets {
		if i > 0 && (out.Source != "" || ds.Source != "") {
			out.Source = "(" + out.Source + ")" + op + "(" + ds.Source + ")"
		}
		for _, p := range ds.Prunes {
			prunes.add(p, i, struct{}{}, len(ds.Prunes))
		}
		for _, p := range ds.Priorities {
			levels.add(pair{p.Hypothesis, p.Focus}, i, p.Level, len(ds.Priorities))
		}
		for _, t := range ds.Thresholds {
			values.add(t.Hypothesis, i, t.Value, len(ds.Thresholds))
		}
	}
	for i, p := range prunes.keys {
		if len(prunes.of[i]) >= need {
			out.Prunes = append(out.Prunes, p)
		}
	}
	for i, k := range levels.keys {
		// The highest level need sets give tops the highest run of need
		// equal levels.
		of := levels.of[i]
		slices.Sort(of)
		for j := len(of) - need; j >= 0; j-- {
			if of[j] == of[j+need-1] {
				out.Priorities = append(out.Priorities, PriorityDirective{Hypothesis: k.hyp, Focus: k.focus, Level: of[j]})
				break
			}
		}
	}
	for i, h := range values.keys {
		if of := values.of[i]; len(of) >= need {
			slices.Sort(of)
			out.Thresholds = append(out.Thresholds, ThresholdDirective{Hypothesis: h, Value: of[need-1]})
		}
	}
	out.Sort()
	return out
}

// tallies holds what the sets give each entry, one value a set, with the
// entries in the order they first appear: the sets come sorted, and so,
// nearly, does what Combine makes of them.
type tallies[K comparable, V any] struct {
	index map[K]int // into keys, last and of
	keys  []K
	last  []int // the last set that gave each entry a value
	of    [][]V
}

// add records v as set's value for key; a set's later entry for a key
// replaces its earlier one. size is how many entries the set holds.
func (t *tallies[K, V]) add(key K, set int, v V, size int) {
	i, ok := t.index[key]
	switch {
	case !ok:
		if t.index == nil {
			t.index = make(map[K]int, size)
			t.keys, t.last, t.of = make([]K, 0, size), make([]int, 0, size), make([][]V, 0, size)
		}
		t.index[key] = len(t.keys)
		t.keys, t.last, t.of = append(t.keys, key), append(t.last, set), append(t.of, []V{v})
	case t.last[i] == set:
		t.of[i][len(t.of[i])-1] = v
	default:
		t.last[i], t.of[i] = set, append(t.of[i], v)
	}
}
