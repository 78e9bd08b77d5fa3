package sim

import (
	"math"
	"testing"
)

// collector records every emitted interval.
type collector struct {
	ivs []Interval
}

func (c *collector) OnInterval(iv Interval) { c.ivs = append(c.ivs, iv) }

func (c *collector) total(kind Kind, proc string) float64 {
	var sum float64
	for _, iv := range c.ivs {
		if iv.Kind == kind && (proc == "" || iv.Process == proc) {
			sum += iv.Duration()
		}
	}
	return sum
}

func newSim(t *testing.T, progs ...[]Stmt) (*Simulator, *collector) {
	t.Helper()
	cfg := DefaultConfig()
	s := New(cfg)
	col := &collector{}
	s.AddObserver(col)
	for i, p := range progs {
		if err := Validate(p, len(progs)); err != nil {
			t.Fatalf("program %d: %v", i, err)
		}
		name := string(rune('a' + i))
		if _, err := s.AddProcess("p"+name, "n"+name, p); err != nil {
			t.Fatal(err)
		}
	}
	return s, col
}

func TestComputeInterval(t *testing.T) {
	s, col := newSim(t, []Stmt{Compute{Module: "m", Function: "f", Mean: 2.0}})
	if err := s.Run(100); err != nil {
		t.Fatal(err)
	}
	if !s.Done() {
		t.Fatal("not done")
	}
	if len(col.ivs) != 1 {
		t.Fatalf("intervals = %d", len(col.ivs))
	}
	iv := col.ivs[0]
	if iv.Kind != KindCPU || iv.Start != 0 || math.Abs(iv.End-2.0) > 1e-12 {
		t.Errorf("interval = %+v", iv)
	}
	if iv.Module != "m" || iv.Function != "f" || iv.Process != "pa" || iv.Node != "na" || iv.Calls != 1 {
		t.Errorf("attribution = %+v", iv)
	}
	p := s.Processes()[0]
	if math.Abs(p.Total(KindCPU)-2.0) > 1e-12 || math.Abs(p.FinishedAt()-2.0) > 1e-12 {
		t.Errorf("totals: cpu=%v finish=%v", p.Total(KindCPU), p.FinishedAt())
	}
}

func TestIOInterval(t *testing.T) {
	s, col := newSim(t, []Stmt{IO{Module: "m", Function: "f", Mean: 1.5}})
	if err := s.Run(100); err != nil {
		t.Fatal(err)
	}
	if col.total(KindIOWait, "") != 1.5 {
		t.Errorf("io total = %v", col.total(KindIOWait, ""))
	}
}

func TestBlockingRendezvousTiming(t *testing.T) {
	// Sender reaches its send at t=0; receiver posts the receive at t=1
	// after computing. The sender must wait in synchronization from 0
	// until the transfer completes.
	send := []Stmt{Send{Module: "m", Function: "f", Tag: "t", Dst: 1, Bytes: 0, Blocking: true}}
	recv := []Stmt{
		Compute{Module: "m", Function: "g", Mean: 1.0},
		Recv{Module: "m", Function: "f", Tag: "t", Src: 0},
	}
	s, col := newSim(t, send, recv)
	if err := s.Run(100); err != nil {
		t.Fatal(err)
	}
	if !s.Done() {
		t.Fatal("deadlock")
	}
	xfer := DefaultConfig().MsgLatency
	senderWait := col.total(KindSyncWait, "pa")
	if math.Abs(senderWait-(1.0+xfer)) > 1e-9 {
		t.Errorf("sender sync wait = %v, want %v", senderWait, 1.0+xfer)
	}
	recvWait := col.total(KindSyncWait, "pb")
	if math.Abs(recvWait-xfer) > 1e-9 {
		t.Errorf("receiver sync wait = %v, want %v", recvWait, xfer)
	}
	// The transfer interval carries the message accounting exactly once.
	msgs := 0
	for _, iv := range col.ivs {
		msgs += iv.Msgs
	}
	if msgs != 1 {
		t.Errorf("msgs = %d, want 1", msgs)
	}
}

func TestBlockingSendFindsWaitingReceiver(t *testing.T) {
	// Receiver posts first; sender arrives later: receiver waits, sender
	// only pays the transfer.
	send := []Stmt{
		Compute{Module: "m", Function: "g", Mean: 2.0},
		Send{Module: "m", Function: "f", Tag: "t", Dst: 1, Bytes: 1000, Blocking: true},
	}
	recv := []Stmt{Recv{Module: "m", Function: "f", Tag: "t", Src: 0}}
	s, col := newSim(t, send, recv)
	if err := s.Run(100); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	xfer := cfg.MsgLatency + 1000*cfg.SecPerByte
	if got := col.total(KindSyncWait, "pa"); math.Abs(got-xfer) > 1e-9 {
		t.Errorf("sender wait = %v, want %v", got, xfer)
	}
	if got := col.total(KindSyncWait, "pb"); math.Abs(got-(2.0+xfer)) > 1e-9 {
		t.Errorf("receiver wait = %v, want %v", got, 2.0+xfer)
	}
}

func TestEagerSendOverlapsCompute(t *testing.T) {
	// Non-blocking send posted before a long compute; the receiver's
	// message arrives during the sender's compute, so the receiver barely
	// waits and the sender never blocks.
	send := []Stmt{
		Send{Module: "m", Function: "f", Tag: "t", Dst: 1, Bytes: 0},
		Compute{Module: "m", Function: "g", Mean: 5.0},
	}
	recv := []Stmt{
		Compute{Module: "m", Function: "g", Mean: 1.0},
		Recv{Module: "m", Function: "f", Tag: "t", Src: 0},
	}
	s, col := newSim(t, send, recv)
	if err := s.Run(100); err != nil {
		t.Fatal(err)
	}
	if got := col.total(KindSyncWait, "pa"); got != 0 {
		t.Errorf("eager sender waited %v", got)
	}
	if got := col.total(KindSyncWait, "pb"); got > 1e-6 {
		t.Errorf("receiver of already-arrived message waited %v", got)
	}
}

func TestEagerRecvBeforeSendWaits(t *testing.T) {
	// Receiver posts immediately; eager sender computes 2s first. The
	// receiver waits about 2s + overhead + transfer.
	send := []Stmt{
		Compute{Module: "m", Function: "g", Mean: 2.0},
		Send{Module: "m", Function: "f", Tag: "t", Dst: 1, Bytes: 0},
	}
	recv := []Stmt{Recv{Module: "m", Function: "f", Tag: "t", Src: 0}}
	s, col := newSim(t, send, recv)
	if err := s.Run(100); err != nil {
		t.Fatal(err)
	}
	got := col.total(KindSyncWait, "pb")
	if got < 2.0 || got > 2.01 {
		t.Errorf("receiver wait = %v, want about 2.0", got)
	}
}

func TestAllReduceReleasesTogether(t *testing.T) {
	mk := func(d float64) []Stmt {
		return []Stmt{
			Compute{Module: "m", Function: "f", Mean: d},
			AllReduce{Module: "m", Function: "f", Tag: "r"},
		}
	}
	s, col := newSim(t, mk(1.0), mk(3.0), mk(2.0))
	if err := s.Run(100); err != nil {
		t.Fatal(err)
	}
	if !s.Done() {
		t.Fatal("collective deadlocked")
	}
	base := DefaultConfig().CollectiveBase
	// The earliest arriver (1s) waits 2s + base; the last waits only base.
	if got := col.total(KindSyncWait, "pa"); math.Abs(got-(2.0+base)) > 1e-9 {
		t.Errorf("pa wait = %v, want %v", got, 2.0+base)
	}
	if got := col.total(KindSyncWait, "pb"); math.Abs(got-base) > 1e-9 {
		t.Errorf("pb wait = %v, want %v", got, base)
	}
	// All finish at the same instant.
	ps := s.Processes()
	if math.Abs(ps[0].FinishedAt()-ps[1].FinishedAt()) > 1e-9 {
		t.Errorf("finish times differ: %v vs %v", ps[0].FinishedAt(), ps[1].FinishedAt())
	}
}

func TestTimeConservationPerProcess(t *testing.T) {
	// cpu + sync + io exactly equals each process's finish time: the
	// engine accounts for every moment of execution.
	mk := func(r int) []Stmt {
		var iter []Stmt
		iter = append(iter, Compute{Module: "m", Function: "work", Mean: 0.1 * float64(r+1), Jitter: 0.2})
		iter = append(iter, IO{Module: "m", Function: "ckpt", Mean: 0.01})
		if r == 0 {
			iter = append(iter, Recv{Module: "m", Function: "x", Tag: "t", Src: 1})
		} else {
			iter = append(iter, Send{Module: "m", Function: "x", Tag: "t", Dst: 0, Bytes: 512, Blocking: true})
		}
		iter = append(iter, AllReduce{Module: "m", Function: "red", Tag: "r"})
		return []Stmt{Loop{Count: 20, Body: iter}}
	}
	s, _ := newSim(t, mk(0), mk(1))
	if err := s.Run(1000); err != nil {
		t.Fatal(err)
	}
	if !s.Done() {
		t.Fatal("did not finish")
	}
	for _, p := range s.Processes() {
		sum := p.Total(KindCPU) + p.Total(KindSyncWait) + p.Total(KindIOWait)
		if math.Abs(sum-p.FinishedAt()) > 1e-6 {
			t.Errorf("%s: cpu+sync+io = %v, finish = %v", p.name, sum, p.FinishedAt())
		}
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	build := func() *Simulator {
		cfg := DefaultConfig()
		cfg.Seed = 42
		s := New(cfg)
		prog := []Stmt{Loop{Count: 50, Body: []Stmt{
			Compute{Module: "m", Function: "f", Mean: 0.1, Jitter: 0.3},
			AllReduce{Module: "m", Function: "f", Tag: "r"},
		}}}
		_, _ = s.AddProcess("p0", "n0", prog)
		_, _ = s.AddProcess("p1", "n1", prog)
		return s
	}
	s1, s2 := build(), build()
	if err := s1.Run(1000); err != nil {
		t.Fatal(err)
	}
	if err := s2.Run(1000); err != nil {
		t.Fatal(err)
	}
	for i := range s1.Processes() {
		a, b := s1.Processes()[i], s2.Processes()[i]
		if a.FinishedAt() != b.FinishedAt() || a.Total(KindCPU) != b.Total(KindCPU) {
			t.Errorf("run divergence for %s", a.name)
		}
	}
}

func TestSlowdownStretchesCompute(t *testing.T) {
	cfg := DefaultConfig()
	s := New(cfg)
	_, _ = s.AddProcess("p0", "n0", []Stmt{Compute{Module: "m", Function: "f", Mean: 1.0}})
	s.SetSlowdown(func(rank int) float64 { return 1.5 })
	if err := s.Run(100); err != nil {
		t.Fatal(err)
	}
	p := s.Processes()[0]
	if math.Abs(p.FinishedAt()-1.5) > 1e-12 {
		t.Errorf("finish = %v, want 1.5", p.FinishedAt())
	}
	// Slowdown factors below 1 are clamped to 1 (instrumentation never
	// speeds the application up).
	s2 := New(cfg)
	_, _ = s2.AddProcess("p0", "n0", []Stmt{Compute{Module: "m", Function: "f", Mean: 1.0}})
	s2.SetSlowdown(func(rank int) float64 { return 0.1 })
	_ = s2.Run(100)
	if math.Abs(s2.Processes()[0].FinishedAt()-1.0) > 1e-12 {
		t.Error("slowdown below 1 was not clamped")
	}
}

func TestRunUntilAdvancesClock(t *testing.T) {
	s, _ := newSim(t, []Stmt{Compute{Module: "m", Function: "f", Mean: 1.0}})
	if err := s.RunUntil(0.5); err != nil {
		t.Fatal(err)
	}
	if s.Now() != 0.5 {
		t.Errorf("Now = %v", s.Now())
	}
	if s.Done() {
		t.Error("done too early")
	}
	if err := s.RunUntil(10); err != nil {
		t.Fatal(err)
	}
	if !s.Done() {
		t.Error("not done")
	}
	if s.Now() != 10 {
		t.Errorf("Now = %v, clock should advance to the requested time", s.Now())
	}
}

func TestEventCapCatchesZeroTimeLoops(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxEvents = 1000
	s := New(cfg)
	prog := []Stmt{Loop{Count: -1, Body: []Stmt{Compute{Module: "m", Function: "f", Mean: 0}}}}
	_, _ = s.AddProcess("p0", "n0", prog)
	if err := s.Run(10); err == nil {
		t.Error("zero-time infinite loop not caught")
	}
}

func TestAddProcessValidation(t *testing.T) {
	s := New(DefaultConfig())
	if _, err := s.AddProcess("", "n", nil); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := s.AddProcess("p", "", nil); err == nil {
		t.Error("empty node accepted")
	}
	if _, err := s.AddProcess("p", "n", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddProcess("p", "n2", nil); err == nil {
		t.Error("duplicate name accepted")
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddProcess("q", "n", nil); err == nil {
		t.Error("AddProcess after Start accepted")
	}
	if err := s.Start(); err == nil {
		t.Error("double Start accepted")
	}
}

func TestStartWithoutProcesses(t *testing.T) {
	s := New(DefaultConfig())
	if err := s.Start(); err == nil {
		t.Error("Start with no processes accepted")
	}
}

func TestJitterStaysWithinBounds(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 7
	s := New(cfg)
	prog := []Stmt{Loop{Count: 200, Body: []Stmt{Compute{Module: "m", Function: "f", Mean: 1.0, Jitter: 0.25}}}}
	col := &collector{}
	s.AddObserver(col)
	_, _ = s.AddProcess("p0", "n0", prog)
	if err := s.Run(1e6); err != nil {
		t.Fatal(err)
	}
	for _, iv := range col.ivs {
		d := iv.Duration()
		if d < 0.75-1e-9 || d > 1.25+1e-9 {
			t.Fatalf("jittered duration %v out of [0.75,1.25]", d)
		}
	}
}

func TestKindString(t *testing.T) {
	if KindCPU.String() != "cpu" || KindSyncWait.String() != "sync_wait" || KindIOWait.String() != "io_wait" {
		t.Error("Kind strings wrong")
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind string empty")
	}
}
