package resource

import (
	"strings"
	"testing"
)

func testSpace(t *testing.T) *Space {
	t.Helper()
	s := NewStandardSpace()
	s.MustAdd("/Code/oned.f/main")
	s.MustAdd("/Code/oned.f/setup")
	s.MustAdd("/Code/sweep.f/sweep1d")
	s.MustAdd("/Machine/sp01")
	s.MustAdd("/Machine/sp02")
	s.MustAdd("/Process/p1")
	s.MustAdd("/Process/p2")
	s.MustAdd("/SyncObject/Message/tag_3_0")
	return s
}

func TestNewSpaceValidation(t *testing.T) {
	if _, err := NewSpace(); err == nil {
		t.Error("empty space succeeded")
	}
	if _, err := NewSpace("A", "A"); err == nil {
		t.Error("duplicate hierarchy succeeded")
	}
	if _, err := NewSpace("A", "B/C"); err == nil {
		t.Error("bad hierarchy name succeeded")
	}
}

func TestStandardSpace(t *testing.T) {
	s := NewStandardSpace()
	if s.NumHierarchies() != 4 {
		t.Fatalf("NumHierarchies = %d", s.NumHierarchies())
	}
	for i, name := range StandardHierarchies {
		h, ok := s.Hierarchy(name)
		if !ok || h.Name() != name {
			t.Errorf("missing hierarchy %q", name)
		}
		idx, ok := s.HierarchyIndex(name)
		if !ok || idx != i {
			t.Errorf("HierarchyIndex(%q) = %d, %v", name, idx, ok)
		}
	}
}

func TestWholeProgramFocus(t *testing.T) {
	s := testSpace(t)
	f := s.WholeProgram()
	if !f.Valid() {
		t.Fatal("whole-program focus invalid")
	}
	if !f.IsWholeProgram() {
		t.Error("IsWholeProgram false")
	}
	if f.Depth() != 0 {
		t.Errorf("Depth = %d", f.Depth())
	}
	want := "</Code,/Machine,/Process,/SyncObject>"
	if f.Name() != want {
		t.Errorf("Name = %q, want %q", f.Name(), want)
	}
}

func TestFocusWithSelectionAndName(t *testing.T) {
	s := testSpace(t)
	fn, _ := s.Find("/Code/oned.f/main")
	p, _ := s.Find("/Process/p2")
	f := s.WholeProgram().MustWithSelection(fn).MustWithSelection(p)
	want := "</Code/oned.f/main,/Machine,/Process/p2,/SyncObject>"
	if f.Name() != want {
		t.Errorf("Name = %q, want %q", f.Name(), want)
	}
	if f.IsWholeProgram() {
		t.Error("constrained focus reports whole program")
	}
	if f.Depth() != 3 {
		t.Errorf("Depth = %d, want 3", f.Depth())
	}
	sel, ok := f.Selection(HierProcess)
	if !ok || sel != p {
		t.Error("Selection(Process) wrong")
	}
}

func TestWithSelectionRejectsForeignResource(t *testing.T) {
	s1 := testSpace(t)
	s2 := testSpace(t)
	foreign, _ := s2.Find("/Process/p1")
	if _, err := s1.WholeProgram().WithSelection(foreign); err == nil {
		t.Error("WithSelection accepted a resource from another space")
	}
	if _, err := s1.WholeProgram().WithSelection(nil); err == nil {
		t.Error("WithSelection accepted nil")
	}
}

func TestParseFocusRoundTrip(t *testing.T) {
	s := testSpace(t)
	fn, _ := s.Find("/Code/sweep.f/sweep1d")
	m, _ := s.Find("/Machine/sp02")
	f := s.WholeProgram().MustWithSelection(fn).MustWithSelection(m)
	parsed, err := ParseFocus(s, f.Name())
	if err != nil {
		t.Fatal(err)
	}
	if !parsed.Equal(f) {
		t.Errorf("round trip: %q != %q", parsed.Name(), f.Name())
	}
	// Whitespace tolerated, as in the paper's focus notation.
	spaced := "< /Code/sweep.f/sweep1d, /Machine/sp02, /Process, /SyncObject >"
	parsed2, err := ParseFocus(s, spaced)
	if err != nil {
		t.Fatal(err)
	}
	if !parsed2.Equal(f) {
		t.Error("whitespace-tolerant parse differs")
	}
}

func TestParseFocusErrors(t *testing.T) {
	s := testSpace(t)
	cases := []string{
		"",                                      // no brackets
		"</Code,/Machine,/Process>",             // too few selections
		"</Code,/Machine,/Process,/Nope>",       // unknown resource
		"</Machine,/Code,/Process,/SyncObject>", // out of order
		"</Code,/Machine,/Process,/SyncObject",  // unterminated
	}
	for _, c := range cases {
		if _, err := ParseFocus(s, c); err == nil {
			t.Errorf("ParseFocus(%q) succeeded", c)
		}
	}
}

func TestFocusChildrenRefinement(t *testing.T) {
	s := testSpace(t)
	f := s.WholeProgram()
	all := f.AllChildren()
	// 2 modules + 2 machines + 2 processes + 1 Message = 7.
	if len(all) != 7 {
		t.Fatalf("AllChildren = %d, want 7", len(all))
	}
	for _, c := range all {
		if !f.Contains(c) {
			t.Errorf("parent does not contain child %s", c.Name())
		}
		if c.Contains(f) {
			t.Errorf("child contains parent")
		}
	}
	if got := all[0].Name() + " " + all[1].Name(); got != "</Code/oned.f,/Machine,/Process,/SyncObject> </Code/sweep.f,/Machine,/Process,/SyncObject>" {
		t.Errorf("the Code refinements are %s", got)
	}
	// A leaf selection yields no children along that hierarchy.
	fn, _ := s.Find("/Code/oned.f/main")
	leafFocus := f.MustWithSelection(fn)
	kids := leafFocus.AllChildren()
	if len(kids) != 5 {
		t.Fatalf("leaf focus has %d children, want the 5 outside Code", len(kids))
	}
	for _, c := range kids {
		if c.SelectionAt(0) != fn {
			t.Errorf("leaf focus refined along Code to %s", c.Name())
		}
	}
}

// TestFocusKeyIsIdentity: keys are equal exactly when the foci select the
// same resources, KeyWith keys the focus With would build, and a space of
// more hierarchies than a key holds by identity is keyed by the rest's
// names.
func TestFocusKeyIsIdentity(t *testing.T) {
	wide, err := NewSpace("A", "B", "C", "D", "E", "F")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*Space{testSpace(t), wide} {
		for _, h := range s.Hierarchies() {
			s.MustAdd("/" + h.Name() + "/x/y")
			s.MustAdd("/" + h.Name() + "/z")
		}
		foci := []Focus{s.WholeProgram()}
		for i := 0; i < len(foci) && len(foci) < 400; i++ {
			foci = append(foci, foci[i].AllChildren()...)
		}
		for _, f := range foci {
			for i := range s.NumHierarchies() {
				for _, c := range f.SelectionAt(i).Children() {
					if f.KeyWith(i, c) != f.With(i, c).Key() {
						t.Errorf("KeyWith(%d, %s) of %s differs from the key of the focus With builds", i, c.Path(), f.Name())
					}
				}
			}
			for _, g := range foci {
				if (f.Key() == g.Key()) != f.Equal(g) {
					t.Errorf("%s and %s: keys equal %v, foci equal %v", f.Name(), g.Name(), f.Key() == g.Key(), f.Equal(g))
				}
			}
		}
	}
}

func TestFocusContainsPartialOrder(t *testing.T) {
	s := testSpace(t)
	mod, _ := s.Find("/Code/oned.f")
	fn, _ := s.Find("/Code/oned.f/main")
	other, _ := s.Find("/Code/sweep.f")
	top := s.WholeProgram()
	fm := top.MustWithSelection(mod)
	ff := top.MustWithSelection(fn)
	fo := top.MustWithSelection(other)
	if !top.Contains(fm) || !fm.Contains(ff) || !top.Contains(ff) {
		t.Error("containment chain broken")
	}
	if fm.Contains(fo) || fo.Contains(fm) {
		t.Error("sibling foci should not contain each other")
	}
	if !ff.Contains(ff) {
		t.Error("Contains not reflexive")
	}
}

func TestSpaceAllPathsAndSize(t *testing.T) {
	s := testSpace(t)
	paths := s.AllPaths()
	if len(paths) != s.Size() {
		t.Errorf("AllPaths %d != Size %d", len(paths), s.Size())
	}
	joined := strings.Join(paths, " ")
	for _, want := range []string{"/Code/oned.f/main", "/SyncObject/Message/tag_3_0", "/Machine/sp02"} {
		if !strings.Contains(joined, want) {
			t.Errorf("AllPaths missing %q", want)
		}
	}
}

func TestSpaceFindDispatch(t *testing.T) {
	s := testSpace(t)
	if _, ok := s.Find("/Process/p1"); !ok {
		t.Error("Find(/Process/p1) failed")
	}
	if _, ok := s.Find("/Unknown/x"); ok {
		t.Error("Find in unknown hierarchy succeeded")
	}
	if _, err := s.Add("/Unknown/x"); err == nil {
		t.Error("Add to unknown hierarchy succeeded")
	}
}
