package resource

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomSpace builds a pseudo-random standard space from a seed.
func randomSpace(seed int64) *Space {
	rng := rand.New(rand.NewSource(seed))
	s := NewStandardSpace()
	nmods := 1 + rng.Intn(5)
	for m := 0; m < nmods; m++ {
		mod := fmt.Sprintf("mod%d.f", m)
		nfns := rng.Intn(4)
		s.MustAdd("/Code/" + mod)
		for f := 0; f < nfns; f++ {
			s.MustAdd(fmt.Sprintf("/Code/%s/fn%d", mod, f))
		}
	}
	n := 1 + rng.Intn(8)
	for i := 0; i < n; i++ {
		s.MustAdd(fmt.Sprintf("/Machine/node%02d", i))
		s.MustAdd(fmt.Sprintf("/Process/proc%d", i))
	}
	ntags := rng.Intn(5)
	for i := 0; i < ntags; i++ {
		s.MustAdd(fmt.Sprintf("/SyncObject/Message/tag%d", i))
	}
	return s
}

// randomFocus picks a random focus by walking down random depths.
func randomFocus(s *Space, rng *rand.Rand) Focus {
	f := s.WholeProgram()
	for _, h := range s.Hierarchies() {
		r := h.Root()
		for r.NumChildren() > 0 && rng.Intn(2) == 1 {
			kids := r.Children()
			r = kids[rng.Intn(len(kids))]
		}
		f = f.MustWithSelection(r)
	}
	return f
}

func TestQuickFocusNameRoundTrip(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	prop := func(seed int64, fseed int64) bool {
		s := randomSpace(seed)
		rng := rand.New(rand.NewSource(fseed))
		f := randomFocus(s, rng)
		parsed, err := ParseFocus(s, f.Name())
		if err != nil {
			return false
		}
		return parsed.Equal(f) && parsed.Name() == f.Name()
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickRefinementContainment(t *testing.T) {
	// Every child focus is contained in its parent, is strictly deeper,
	// and no two children of the same refinement are equal.
	cfg := &quick.Config{MaxCount: 100}
	prop := func(seed int64, fseed int64) bool {
		s := randomSpace(seed)
		rng := rand.New(rand.NewSource(fseed))
		f := randomFocus(s, rng)
		kids := f.AllChildren()
		for i, c := range kids {
			if !f.Contains(c) || c.Contains(f) && !c.Equal(f) {
				return false
			}
			if c.Depth() != f.Depth()+1 {
				return false
			}
			for j := i + 1; j < len(kids); j++ {
				if c.Equal(kids[j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickContainsTransitive(t *testing.T) {
	cfg := &quick.Config{MaxCount: 100}
	prop := func(seed, s1, s2, s3 int64) bool {
		s := randomSpace(seed)
		a := randomFocus(s, rand.New(rand.NewSource(s1)))
		b := randomFocus(s, rand.New(rand.NewSource(s2)))
		c := randomFocus(s, rand.New(rand.NewSource(s3)))
		// Reflexivity.
		if !a.Contains(a) {
			return false
		}
		// Antisymmetry: mutual containment implies equality.
		if a.Contains(b) && b.Contains(a) && !a.Equal(b) {
			return false
		}
		// Transitivity.
		if a.Contains(b) && b.Contains(c) && !a.Contains(c) {
			return false
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickWholeProgramContainsEverything(t *testing.T) {
	cfg := &quick.Config{MaxCount: 100}
	prop := func(seed, fseed int64) bool {
		s := randomSpace(seed)
		f := randomFocus(s, rand.New(rand.NewSource(fseed)))
		return s.WholeProgram().Contains(f)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// recursivePath is Path as it was computed before resources stored it:
// the labels from the hierarchy root down, joined on every call.
func recursivePath(r *Resource) string {
	if r.parent == nil {
		return "/" + r.label
	}
	return recursivePath(r.parent) + "/" + r.label
}

// TestQuickStoredPathMatchesRecursive grows a standard space by a
// thousand generated paths and holds every resource's stored path, and
// every Add's answer, to the recursive form.
func TestQuickStoredPathMatchesRecursive(t *testing.T) {
	s := NewStandardSpace()
	added := 0
	prop := func(hier uint8, labels []string) bool {
		path := "/" + StandardHierarchies[int(hier)%len(StandardHierarchies)]
		for i, l := range labels {
			if i == 4 {
				break
			}
			if validateLabel(l) != nil {
				l = fmt.Sprintf("l%d", len(l))
			}
			path += "/" + l
		}
		r, err := s.Add(path)
		if err != nil {
			t.Logf("Add(%q): %v", path, err)
			return false
		}
		added++
		return r.Path() == path && recursivePath(r) == path
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
	if added != 1000 || s.Size() <= len(StandardHierarchies) {
		t.Fatalf("corpus added %d paths, space size %d", added, s.Size())
	}
	seen := 0
	for _, h := range s.Hierarchies() {
		h.Root().Walk(func(r *Resource) bool {
			seen++
			if got, want := r.Path(), recursivePath(r); got != want {
				t.Errorf("Path() = %q, recursive form %q", got, want)
			}
			return true
		})
	}
	if seen != s.Size() {
		t.Errorf("walked %d resources of %d", seen, s.Size())
	}
}

func TestPathAndFocusNameAllocations(t *testing.T) {
	s := NewStandardSpace()
	r := s.MustAdd("/Code/oned.f/main")
	s.MustAdd("/Process/p1")
	f, err := ParseFocus(s, "</Code/oned.f/main,/Machine,/Process/p1,/SyncObject>")
	if err != nil {
		t.Fatal(err)
	}
	var sink string
	if n := testing.AllocsPerRun(100, func() { sink = r.Path() }); n != 0 {
		t.Errorf("Path of %s allocates %v times", sink, n)
	}
	if n := testing.AllocsPerRun(100, func() { sink = f.Name() }); n != 1 {
		t.Errorf("Focus.Name of %s allocates %v times, want 1", sink, n)
	}
}
