package sim

import "testing"

// testCursor walks prog bound to a lone process, as AddProcess binds it.
func testCursor(prog []Stmt) *cursor {
	return newCursor(New(DefaultConfig()).bind(&Process{name: "p", node: "n"}, prog))
}

func TestCursorFlatProgram(t *testing.T) {
	prog := []Stmt{
		Compute{Module: "m", Function: "f", Mean: 1},
		IO{Module: "m", Function: "f", Mean: 1},
	}
	c := testCursor(prog)
	if _, ok := c.next().op.(Compute); !ok {
		t.Fatal("first stmt not Compute")
	}
	if _, ok := c.next().op.(IO); !ok {
		t.Fatal("second stmt not IO")
	}
	if c.next() != nil {
		t.Fatal("program should be finished")
	}
	if c.next() != nil {
		t.Fatal("next after end should stay nil")
	}
}

func TestCursorLoopCount(t *testing.T) {
	prog := []Stmt{
		Loop{Count: 3, Body: []Stmt{Compute{Module: "m", Function: "f", Mean: 1}}},
		IO{Module: "m", Function: "g", Mean: 1},
	}
	c := testCursor(prog)
	for i := 0; i < 3; i++ {
		if _, ok := c.next().op.(Compute); !ok {
			t.Fatalf("iteration %d not Compute", i)
		}
	}
	if _, ok := c.next().op.(IO); !ok {
		t.Fatal("post-loop stmt not IO")
	}
	if c.next() != nil {
		t.Fatal("program should be finished")
	}
}

func TestCursorNestedLoops(t *testing.T) {
	prog := []Stmt{
		Loop{Count: 2, Body: []Stmt{
			Compute{Module: "m", Function: "outer", Mean: 1},
			Loop{Count: 3, Body: []Stmt{Compute{Module: "m", Function: "inner", Mean: 1}}},
		}},
	}
	c := testCursor(prog)
	var seq []string
	for st := c.next(); st != nil; st = c.next() {
		seq = append(seq, st.op.(Compute).Function)
	}
	want := []string{"outer", "inner", "inner", "inner", "outer", "inner", "inner", "inner"}
	if len(seq) != len(want) {
		t.Fatalf("seq = %v", seq)
	}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("seq = %v, want %v", seq, want)
		}
	}
}

func TestCursorInfiniteLoop(t *testing.T) {
	prog := []Stmt{Loop{Count: -1, Body: []Stmt{Compute{Module: "m", Function: "f", Mean: 1}}}}
	c := testCursor(prog)
	for i := 0; i < 1000; i++ {
		if c.next() == nil {
			t.Fatal("infinite loop terminated")
		}
	}
}

func TestCursorEmptyAndZeroLoops(t *testing.T) {
	prog := []Stmt{
		Loop{Count: 0, Body: []Stmt{Compute{Module: "m", Function: "skipped", Mean: 1}}},
		Loop{Count: 2, Body: nil},
		Compute{Module: "m", Function: "after", Mean: 1},
	}
	c := testCursor(prog)
	st := c.next()
	cp, ok := st.op.(Compute)
	if !ok || cp.Function != "after" {
		t.Fatalf("got %v, want the trailing Compute", st.op)
	}
	if c.next() != nil {
		t.Fatal("should be done")
	}
}

func TestValidateAcceptsGoodProgram(t *testing.T) {
	prog := []Stmt{
		Compute{Module: "m", Function: "f", Mean: 0.1, Jitter: 0.1},
		Send{Module: "m", Function: "f", Tag: "t", Dst: 1, Bytes: 10, Blocking: true},
		Recv{Module: "m", Function: "f", Tag: "t", Src: 1},
		AllReduce{Module: "m", Function: "f", Tag: "r"},
		IO{Module: "m", Function: "f", Mean: 0.1},
		Loop{Count: -1, Body: []Stmt{Compute{Module: "m", Function: "g", Mean: 0.1}}},
	}
	if err := Validate(prog, 2); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestValidateRejectsBadPrograms(t *testing.T) {
	cases := []struct {
		name string
		prog []Stmt
	}{
		{"negative compute", []Stmt{Compute{Module: "m", Function: "f", Mean: -1}}},
		{"jitter > 1", []Stmt{Compute{Module: "m", Function: "f", Mean: 1, Jitter: 2}}},
		{"compute missing function", []Stmt{Compute{Module: "m", Mean: 1}}},
		{"bad io", []Stmt{IO{Module: "m", Function: "f", Mean: -0.1}}},
		{"send dst out of range", []Stmt{Send{Module: "m", Function: "f", Tag: "t", Dst: 5}}},
		{"send missing tag", []Stmt{Send{Module: "m", Function: "f", Dst: 1}}},
		{"send negative bytes", []Stmt{Send{Module: "m", Function: "f", Tag: "t", Dst: 1, Bytes: -1}}},
		{"recv src out of range", []Stmt{Recv{Module: "m", Function: "f", Tag: "t", Src: -1}}},
		{"reduce missing tag", []Stmt{AllReduce{Module: "m", Function: "f"}}},
		{"nested bad stmt", []Stmt{Loop{Count: 2, Body: []Stmt{Send{Module: "m", Function: "f", Tag: "t", Dst: 9}}}}},
	}
	for _, c := range cases {
		if err := Validate(c.prog, 2); err == nil {
			t.Errorf("%s: Validate succeeded", c.name)
		}
	}
}

func TestValidateRejectsDeepNesting(t *testing.T) {
	prog := []Stmt{Compute{Module: "m", Function: "f", Mean: 1}}
	for i := 0; i < 70; i++ {
		prog = []Stmt{Loop{Count: 2, Body: prog}}
	}
	if err := Validate(prog, 1); err == nil {
		t.Error("deeply nested program accepted")
	}
}
