package harness

import "testing"

// The scheduler's headline guarantee: because each session's state
// (simulator RNG, observers, probe tables, SHG) is confined to its own
// goroutine and the simulator is deterministic per seed, every rendered
// table is byte-identical regardless of worker count. These tests run
// Table 1-3 once sequentially and twice with eight workers and compare
// the rendered outputs byte for byte — both across worker counts and
// across back-to-back parallel runs.

func renderTable1(t *testing.T, workers int) string {
	t.Helper()
	res, err := NewEnv(nil).Table1(1, workers)
	if err != nil {
		t.Fatal(err)
	}
	return res.Render()
}

func renderTable2(t *testing.T, workers int) string {
	t.Helper()
	res, err := Table2(1, workers)
	if err != nil {
		t.Fatal(err)
	}
	return res.Render()
}

func renderTable3(t *testing.T, workers int) string {
	t.Helper()
	res, err := NewEnv(nil).Table3(1, workers)
	if err != nil {
		t.Fatal(err)
	}
	return res.Render()
}

func TestRenderDeterministicAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness")
	}
	tables := []struct {
		name   string
		render func(*testing.T, int) string
	}{
		{"Table1", renderTable1},
		{"Table2", renderTable2},
		{"Table3", renderTable3},
	}
	for _, tb := range tables {
		tb := tb
		t.Run(tb.name, func(t *testing.T) {
			sequential := tb.render(t, 1)
			parallelA := tb.render(t, 8)
			parallelB := tb.render(t, 8)
			if sequential != parallelA {
				t.Errorf("workers=8 output differs from workers=1:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s",
					sequential, parallelA)
			}
			if parallelA != parallelB {
				t.Errorf("two workers=8 runs differ:\n--- first ---\n%s\n--- second ---\n%s",
					parallelA, parallelB)
			}
		})
	}
}
