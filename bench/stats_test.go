package main

import (
	"reflect"
	"testing"
)

func TestPercentileIsExact(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10} // 1..10 shuffled
	for _, tc := range []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {95, 10}, {99, 10}, {10, 1}, {100, 10}, {1, 1},
	} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
	if got := percentile([]float64{42}, 99); got != 42 {
		t.Errorf("percentile of one sample = %v, want 42", got)
	}
	// The input is not reordered.
	if xs[0] != 9 || xs[9] != 10 {
		t.Errorf("percentile sorted its argument in place: %v", xs)
	}
}

func TestMedianAndStrata(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	// Two jobs of very different cost: the plain median of the mix is
	// whatever sample happens to sit in the gap; the stratified one
	// weighs each job's own median once.
	strata := map[int][]float64{0: {10, 11, 12}, 1: {100, 110, 120}}
	if got := stratifiedMedian(strata); got != (11+110)/2.0 {
		t.Errorf("stratifiedMedian = %v, want 60.5", got)
	}
	if got := stratifiedMedian(nil); got != 0 {
		t.Errorf("stratifiedMedian(nil) = %v, want 0", got)
	}
	// Twenty samples lose the two smallest and the two largest: the stall
	// (1000) and its neighbour go, the mean of 3..18 stays.
	var xs []float64
	for i := 1; i <= 19; i++ {
		xs = append(xs, float64(i))
	}
	xs = append(xs, 1000)
	if got := trimmedMean(xs); got != 10.5 {
		t.Errorf("trimmedMean(1..19, 1000) = %v, want 10.5", got)
	}
	if got := trimmedMean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("trimmedMean of three samples = %v, want their mean 3", got)
	}
	if got := trimmedMean(nil); got != 0 {
		t.Errorf("trimmedMean(nil) = %v, want 0", got)
	}
}

// One op traced through every layer, with hand-picked times:
//
//	op        0 ........................................ 100
//	client      5 ................................... 95
//	server         10 ........................... 80
//	gate               20 ................ 70
//	history               25 ....... 55
//	backend                  40 .. 50
func handBuiltOp() []span {
	return []span{
		{Name: "backend.put", Op: 7, Start: 40, End: 50, Parent: -1},
		{Name: "history.save", Op: 7, Start: 25, End: 55, Parent: -1},
		{Name: "client.put_run", Op: 7, Start: 5, End: 95, Parent: -1},
		{Name: "op.write-replicated", Op: 7, Start: 0, End: 100, Parent: -1},
		{Name: "gate.save", Op: 7, Start: 20, End: 70, Parent: -1},
		{Name: "server.handle", Op: 7, Start: 10, End: 80, Parent: -1},
		// Another op's span inside the same interval must not be adopted.
		{Name: "history.save", Op: 8, Start: 30, End: 45, Parent: -1},
		// A span nothing claimed stays a root.
		{Name: "history.load", Op: 0, Start: 12, End: 13, Parent: -1},
	}
}

func TestResolveParentsNestsByOpAndTime(t *testing.T) {
	spans := handBuiltOp()
	resolveParents(spans)
	parentName := func(i int) string {
		if spans[i].Parent < 0 {
			return ""
		}
		return spans[spans[i].Parent].Name
	}
	want := []string{"history.save", "gate.save", "op.write-replicated", "", "server.handle", "client.put_run", "", ""}
	for i := range spans {
		if got := parentName(i); got != want[i] {
			t.Errorf("parent of %s (op %d) = %q, want %q", spans[i].Name, spans[i].Op, got, want[i])
		}
	}
	if spans[0].Parent >= 0 && spans[spans[0].Parent].Op != 7 {
		t.Errorf("backend.put adopted by another op's span")
	}
}

func TestSelfTimeIsSpanMinusCoveredChildren(t *testing.T) {
	spans := handBuiltOp()
	resolveParents(spans)
	got := selfTimes(spans)
	// backend 10; history 30-10; client 90-70; op 100-90; gate 50-30;
	// server 70-50; the two strays are childless.
	want := []int64{10, 20, 20, 10, 20, 20, 15, 1}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}

	// Overlapping and overhanging children are counted once and clipped.
	spans = []span{
		{Name: "parent", Op: 1, Start: 0, End: 100, Parent: -1},
		{Name: "a", Op: 1, Start: 10, End: 40, Parent: 0},
		{Name: "b", Op: 1, Start: 30, End: 60, Parent: 0},  // overlaps a by 10
		{Name: "c", Op: 1, Start: 90, End: 120, Parent: 0}, // overhangs by 20
	}
	if got := selfTimes(spans)[0]; got != 100-(30+20+10) {
		t.Errorf("self time with overlapping children = %d, want 40", got)
	}
}

func TestRecorderMatchesStorageSpansByToken(t *testing.T) {
	rec := newRecorder()
	// Idle: nothing is recorded and nothing is registered.
	rec.expect(1, "k:a/b/c")()
	rec.begin("history.save", 0, "k:a/b/c")()
	if got := rec.take(); len(got) != 0 {
		t.Fatalf("idle recorder kept %d spans", len(got))
	}
	rec.enabled.Store(true)
	done1 := rec.expect(1, "k:hot")
	done2 := rec.expect(2, "k:hot")
	// Two ops waiting on one key are served in turn.
	if a, b := rec.opFor("k:hot"), rec.opFor("k:hot"); a == b || a+b != 3 {
		t.Errorf("two waiters on one token got ops %d and %d", a, b)
	}
	done1()
	if got := rec.opFor("k:hot"); got != 2 {
		t.Errorf("after op 1 withdrew, token resolves to %d, want 2", got)
	}
	done2()
	if got := rec.opFor("k:hot"); got != 0 {
		t.Errorf("after both withdrew, token resolves to %d, want 0", got)
	}
	end := rec.begin("history.save", 0, "k:none")
	end()
	spans := rec.take()
	if len(spans) != 1 || spans[0].Op != 0 || spans[0].End < spans[0].Start {
		t.Errorf("unclaimed span = %+v", spans)
	}
}

// Three whole blocks of a two-op mix and one op over, the middle block
// run on a machine at half pace (scale 0.5): the paced numbers must not
// see the slow spell, the wall-clock ones must, and the op left over
// counts toward the latencies and the pace but not toward a block.
func TestSummarizeScalesAndTakesBlocks(t *testing.T) {
	op := func(stratum int, callMS, wallMS, scale float64) opSample {
		return opSample{stratum: stratum, ns: int64(callMS * 1e6), wall: int64(wallMS * 1e6), scale: scale}
	}
	c := &clientState{attempted: 7, ops: []opSample{
		op(1, 10, 20, 1), op(2, 30, 40, 1),
		op(1, 20, 40, 0.5), op(2, 60, 80, 0.5),
		op(1, 10, 30, 1), op(2, 30, 50, 1),
		op(1, 10, 20, 1),
	}}
	wl := &streamWorkload{}
	if wl.Rotation() != 2 {
		t.Fatalf("the test wants a two-op rotation, stream has %d", wl.Rotation())
	}
	s := summarize(wl, []*clientState{c}, anyTag)
	near := func(what string, got, want float64) {
		t.Helper()
		if d := got - want; d > 1e-9 || d < -1e-9 {
			t.Errorf("%s = %v, want %v", what, got, want)
		}
	}
	if s.ops != 6 || s.attempted != 7 {
		t.Errorf("ops in blocks %d, attempted %d; want 6 and 7", s.ops, s.attempted)
	}
	near("ops/s at the reference pace (blocks of 60, 60, 80 ms)", s.opsPerS, 2/((0.060+0.060+0.080)/3))
	near("ops/s by the clock (blocks of 60, 120, 80 ms)", s.opsPerSWall, 2/((0.060+0.120+0.080)/3))
	if want := []float64{10, 10, 10, 10}; !reflect.DeepEqual(s.headline[1], want) {
		t.Errorf("paced latencies of job 1 = %v, want %v", s.headline[1], want)
	}
	if want := []float64{10, 20, 10, 10}; !reflect.DeepEqual(s.headlineWall[1], want) {
		t.Errorf("wall latencies of job 1 = %v, want %v", s.headlineWall[1], want)
	}
	near("op_p50_ms", stratifiedMedian(s.headline), (10+30)/2.0)
	near("pace", s.pace, (60+60+80+20)/(60+120+80+20.0))
}

// A lap's scale is the nominal kernel time over the mean of the kernel
// runs on either side of it, and the pacer's totals leave the kernel
// runs out.
func TestPacerLaps(t *testing.T) {
	p := startPacer()
	first := p.k
	scale := p.lap()
	if want := float64(refNominal) / (float64(first+p.k) / 2); scale != want {
		t.Errorf("scale = %v, want %v", scale, want)
	}
	if len(p.ks) != 2 || p.wall <= 0 || p.wall > p.k {
		t.Errorf("%d kernel runs, %v of laps (the one lap was empty: it must be far shorter than a kernel run, %v)", len(p.ks), p.wall, p.k)
	}
}
