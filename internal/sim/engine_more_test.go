package sim

import (
	"math"
	"testing"
)

func TestQueuedBlockingSendersAreFIFO(t *testing.T) {
	// Two sequential blocking sends from p0 queue against late receives
	// from p1; payload sizes differ so the completion order proves FIFO.
	send := []Stmt{
		Send{Module: "m", Function: "f", Tag: "t", Dst: 1, Bytes: 1_000_000, Blocking: true},
		Send{Module: "m", Function: "f", Tag: "t", Dst: 1, Bytes: 0, Blocking: true},
	}
	recv := []Stmt{
		Compute{Module: "m", Function: "g", Mean: 1.0},
		Recv{Module: "m", Function: "f", Tag: "t", Src: 0},
		Recv{Module: "m", Function: "f", Tag: "t", Src: 0},
	}
	s, col := newSim(t, send, recv)
	if err := s.Run(100); err != nil {
		t.Fatal(err)
	}
	if !s.Done() {
		t.Fatal("deadlock")
	}
	// The first (big) transfer completes before the second (small) one
	// begins: find the two sender sync intervals and check ordering and
	// sizes.
	var sends []Interval
	for _, iv := range col.ivs {
		if iv.Process == "pa" && iv.Kind == KindSyncWait {
			sends = append(sends, iv)
		}
	}
	if len(sends) != 2 {
		t.Fatalf("sender intervals = %d", len(sends))
	}
	if sends[0].Bytes != 1_000_000 || sends[1].Bytes != 0 {
		t.Errorf("FIFO violated: %+v", sends)
	}
	if sends[1].Start < sends[0].End-1e-9 {
		t.Errorf("second send overlapped the first: %+v", sends)
	}
}

func TestEagerMessagesSameKeyFIFO(t *testing.T) {
	send := []Stmt{
		Send{Module: "m", Function: "f", Tag: "t", Dst: 1, Bytes: 111},
		Send{Module: "m", Function: "f", Tag: "t", Dst: 1, Bytes: 222},
	}
	recv := []Stmt{
		Compute{Module: "m", Function: "g", Mean: 1.0},
		Recv{Module: "m", Function: "f", Tag: "t", Src: 0},
		Recv{Module: "m", Function: "f", Tag: "t", Src: 0},
	}
	s, _ := newSim(t, send, recv)
	if err := s.Run(100); err != nil {
		t.Fatal(err)
	}
	if !s.Done() {
		t.Fatal("receives did not both complete")
	}
}

func TestCollectiveAmongSurvivors(t *testing.T) {
	// p0 finishes immediately; p1 and p2 still complete their collective
	// because only live processes participate.
	p0 := []Stmt{Compute{Module: "m", Function: "f", Mean: 0.1}}
	p12 := []Stmt{
		Compute{Module: "m", Function: "f", Mean: 1.0},
		AllReduce{Module: "m", Function: "f", Tag: "r"},
	}
	s, _ := newSim(t, p0, p12, p12)
	if err := s.Run(100); err != nil {
		t.Fatal(err)
	}
	if !s.Done() {
		t.Fatal("collective deadlocked after a process exited")
	}
}

func TestRunStopsAtMaxTime(t *testing.T) {
	prog := []Stmt{Loop{Count: -1, Body: []Stmt{Compute{Module: "m", Function: "f", Mean: 1.0}}}}
	s, _ := newSim(t, prog)
	if err := s.Run(10.5); err != nil {
		t.Fatal(err)
	}
	if s.Done() {
		t.Error("infinite program reported done")
	}
	if s.Now() != 10.5 {
		t.Errorf("Now = %v", s.Now())
	}
	p := s.Processes()[0]
	if p.Total(KindCPU) < 9.5 || p.Total(KindCPU) > 10.5 {
		t.Errorf("cpu total = %v", p.Total(KindCPU))
	}
}

func TestProcessAccessors(t *testing.T) {
	send := []Stmt{Send{Module: "m", Function: "f", Tag: "t", Dst: 1, Bytes: 64, Blocking: true}}
	recv := []Stmt{Recv{Module: "m", Function: "f", Tag: "t", Src: 0}}
	s, _ := newSim(t, send, recv)
	if err := s.Run(100); err != nil {
		t.Fatal(err)
	}
	p := s.Processes()[0]
	if p.Name() != "pa" || p.Node() != "na" || p.Rank() != 0 {
		t.Errorf("accessors: %s %s %d", p.Name(), p.Node(), p.Rank())
	}
	if p.Msgs() != 1 {
		t.Errorf("Msgs = %d", p.Msgs())
	}
	if !p.Done() {
		t.Error("process not done")
	}
	// The rendezvous is all the sender did; a kind no interval carries
	// reads as zero.
	for _, c := range []struct {
		kind Kind
		want float64
	}{
		{KindSyncWait, p.FinishedAt()},
		{KindCPU, 0},
		{KindIOWait, 0},
		{Kind(7), 0},
		{Kind(-1), 0},
	} {
		if got := p.Total(c.kind); got != c.want {
			t.Errorf("Total(%v) = %v, want %v", c.kind, got, c.want)
		}
	}
}

func TestSendThenComputeKeepsReceiverTimesExact(t *testing.T) {
	// Exact timing audit of a three-phase exchange round under zero
	// jitter: t=0 p0 sends eagerly (overhead o, arrival o+L), computes 1s;
	// p1 computes 0.4s then receives (waits until o+L if o+L > 0.4).
	cfg := DefaultConfig()
	o, L := cfg.SendOverhead, cfg.MsgLatency
	s := New(cfg)
	_, _ = s.AddProcess("p0", "n0", []Stmt{
		Send{Module: "m", Function: "f", Tag: "t", Dst: 1, Bytes: 0},
		Compute{Module: "m", Function: "g", Mean: 1.0},
	})
	_, _ = s.AddProcess("p1", "n1", []Stmt{
		Compute{Module: "m", Function: "g", Mean: 0.4},
		Recv{Module: "m", Function: "f", Tag: "t", Src: 0},
	})
	if err := s.Run(100); err != nil {
		t.Fatal(err)
	}
	p1 := s.Processes()[1]
	want := 0.4 + cfg.RecvOverhead // arrival (o+L << 0.4) precedes the recv
	if o+L > 0.4 {
		t.Fatalf("test premise broken: o+L = %v", o+L)
	}
	if math.Abs(p1.FinishedAt()-want) > 1e-9 {
		t.Errorf("p1 finished at %v, want %v", p1.FinishedAt(), want)
	}
}

func TestObserverSeesMonotonicEventOrder(t *testing.T) {
	// Interval completion times never go backwards in observer order.
	mk := func(r int) []Stmt {
		return []Stmt{Loop{Count: 30, Body: []Stmt{
			Compute{Module: "m", Function: "f", Mean: 0.05 * float64(r+1), Jitter: 0.3},
			AllReduce{Module: "m", Function: "red", Tag: "r"},
		}}}
	}
	s, col := newSim(t, mk(0), mk(1), mk(2))
	if err := s.Run(1000); err != nil {
		t.Fatal(err)
	}
	last := 0.0
	for _, iv := range col.ivs {
		if iv.End+1e-9 < last {
			t.Fatalf("interval completion went backwards: %v after %v", iv.End, last)
		}
		if iv.End > last {
			last = iv.End
		}
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	mk := func(d float64) []Stmt {
		return []Stmt{
			Compute{Module: "m", Function: "f", Mean: d},
			Barrier{Module: "m", Function: "f", Tag: "b"},
		}
	}
	s, col := newSim(t, mk(0.5), mk(2.0))
	if err := s.Run(100); err != nil {
		t.Fatal(err)
	}
	if !s.Done() {
		t.Fatal("barrier deadlocked")
	}
	base := DefaultConfig().CollectiveBase
	if got := col.total(KindSyncWait, "pa"); math.Abs(got-(1.5+base)) > 1e-9 {
		t.Errorf("early arriver waited %v, want %v", got, 1.5+base)
	}
	ps := s.Processes()
	if math.Abs(ps[0].FinishedAt()-ps[1].FinishedAt()) > 1e-9 {
		t.Error("barrier did not release processes together")
	}
}

func TestBarrierValidation(t *testing.T) {
	if err := Validate([]Stmt{Barrier{Module: "m", Function: "f"}}, 1); err == nil {
		t.Error("barrier without tag accepted")
	}
	if err := Validate([]Stmt{Barrier{Module: "m", Tag: "b"}}, 1); err == nil {
		t.Error("barrier without function accepted")
	}
	if err := Validate([]Stmt{Barrier{Module: "m", Function: "f", Tag: "b"}}, 1); err != nil {
		t.Errorf("valid barrier rejected: %v", err)
	}
}

func TestDeadlockDetection(t *testing.T) {
	// Two processes blocking-send to each other with no receives: a
	// classic rendezvous deadlock. Run reports it instead of returning
	// silently.
	p0 := []Stmt{Send{Module: "m", Function: "f", Tag: "t", Dst: 1, Bytes: 1, Blocking: true}}
	p1 := []Stmt{Send{Module: "m", Function: "f", Tag: "t", Dst: 0, Bytes: 1, Blocking: true}}
	s, _ := newSim(t, p0, p1)
	err := s.Run(100)
	if err == nil {
		t.Fatal("deadlock not reported")
	}
	if !s.Deadlocked() {
		t.Error("Deadlocked() = false")
	}
	blocked := s.BlockedProcesses()
	if len(blocked) != 2 {
		t.Errorf("blocked = %v", blocked)
	}
}

func TestNoFalseDeadlockOnCompletion(t *testing.T) {
	s, _ := newSim(t, []Stmt{Compute{Module: "m", Function: "f", Mean: 1}})
	if err := s.Run(100); err != nil {
		t.Fatal(err)
	}
	if s.Deadlocked() {
		t.Error("completed run reported deadlocked")
	}
	if len(s.BlockedProcesses()) != 0 {
		t.Error("completed run reports blocked processes")
	}
}

func TestBlockedFlagClearsAfterRendezvous(t *testing.T) {
	// Receiver posts first (blocked), then the sender arrives; after the
	// exchange nobody is marked blocked.
	send := []Stmt{
		Compute{Module: "m", Function: "g", Mean: 1.0},
		Send{Module: "m", Function: "f", Tag: "t", Dst: 1, Bytes: 1, Blocking: true},
		Compute{Module: "m", Function: "g", Mean: 1.0},
	}
	recv := []Stmt{
		Recv{Module: "m", Function: "f", Tag: "t", Src: 0},
		Compute{Module: "m", Function: "g", Mean: 1.0},
	}
	s, _ := newSim(t, send, recv)
	if err := s.Run(100); err != nil {
		t.Fatal(err)
	}
	if !s.Done() || len(s.BlockedProcesses()) != 0 {
		t.Errorf("done=%v blocked=%v", s.Done(), s.BlockedProcesses())
	}
}

func TestRecvPrefersArrivedEagerOverWaitingBlockingSender(t *testing.T) {
	// Both an eager message and a blocked rendezvous sender wait on the
	// same key: the receiver consumes the channel (eager) message first;
	// a second receive then completes the rendezvous, and nothing
	// deadlocks.
	senderA := []Stmt{Send{Module: "m", Function: "f", Tag: "t", Dst: 2, Bytes: 0}} // eager
	senderB := []Stmt{Send{Module: "m", Function: "f", Tag: "t", Dst: 2, Bytes: 0, Blocking: true}}
	recv := []Stmt{
		Compute{Module: "m", Function: "g", Mean: 1.0},
		Recv{Module: "m", Function: "f", Tag: "t", Src: 0},
		Recv{Module: "m", Function: "f", Tag: "t", Src: 1},
	}
	s, _ := newSim(t, senderA, senderB, recv)
	if err := s.Run(100); err != nil {
		t.Fatal(err)
	}
	if !s.Done() {
		t.Fatal("mixed eager/blocking exchange did not complete")
	}
}

// siteLabels is the label set a Site stands for.
type siteLabels struct{ process, node, module, function, tag string }

func labelsOf(iv Interval) siteLabels {
	return siteLabels{iv.Process, iv.Node, iv.Module, iv.Function, iv.Tag}
}

func TestSitesAreDenseAndStable(t *testing.T) {
	// pa's second receive finds its message arrived (CPU), its first
	// waits (sync): one statement text, one site. The barrier and the
	// reduce carry equal labels; so do both computes of pb.
	recv := Recv{Module: "m", Function: "x", Tag: "t", Src: 1}
	pa := []Stmt{
		recv,
		Compute{Module: "m", Function: "f", Mean: 1.0},
		recv,
		Barrier{Module: "m", Function: "sync", Tag: "all"},
		AllReduce{Module: "m", Function: "sync", Tag: "all", Bytes: 8},
	}
	pb := []Stmt{
		Compute{Module: "m", Function: "f", Mean: 0.5},
		Send{Module: "m", Function: "x", Tag: "t", Dst: 0, Bytes: 10},
		Send{Module: "m", Function: "x", Tag: "t", Dst: 0, Bytes: 20},
		Loop{Count: 2, Body: []Stmt{Compute{Module: "m", Function: "f", Mean: 0.5}}},
		Barrier{Module: "m", Function: "sync", Tag: "all"},
		AllReduce{Module: "m", Function: "sync", Tag: "all", Bytes: 8},
	}
	run := func() []Interval {
		s, col := newSim(t, pa, pb)
		if err := s.Run(100); err != nil {
			t.Fatal(err)
		}
		if !s.Done() {
			t.Fatal("not done")
		}
		return col.ivs
	}
	ivs := run()
	siteOf := map[siteLabels]int{}
	labelsAt := map[int]siteLabels{}
	kinds := map[int]map[Kind]bool{}
	for _, iv := range ivs {
		l := labelsOf(iv)
		if s, ok := siteOf[l]; ok && s != iv.Site {
			t.Errorf("label set %v has sites %d and %d", l, s, iv.Site)
		}
		if o, ok := labelsAt[iv.Site]; ok && o != l {
			t.Errorf("site %d stands for %v and %v", iv.Site, o, l)
		}
		siteOf[l], labelsAt[iv.Site] = iv.Site, l
		if kinds[iv.Site] == nil {
			kinds[iv.Site] = map[Kind]bool{}
		}
		kinds[iv.Site][iv.Kind] = true
	}
	// pa: recv, f, sync; pb: f, x, sync.
	if len(labelsAt) != 6 {
		t.Fatalf("%d sites, want 6: %v", len(labelsAt), labelsAt)
	}
	for site := 1; site <= len(labelsAt); site++ {
		if _, ok := labelsAt[site]; !ok {
			t.Errorf("sites are not 1..%d: %d is missing from %v", len(labelsAt), site, labelsAt)
		}
	}
	if k := kinds[siteOf[siteLabels{"pa", "na", "m", "x", "t"}]]; !k[KindCPU] || !k[KindSyncWait] {
		t.Errorf("the receive completed as %v, want both CPU and sync-wait under one site", k)
	}
	again := run()
	if len(again) != len(ivs) {
		t.Fatalf("second build emitted %d intervals, first %d", len(again), len(ivs))
	}
	for i := range ivs {
		if again[i] != ivs[i] {
			t.Fatalf("interval %d differs between two builds: %+v vs %+v", i, again[i], ivs[i])
		}
	}
}
