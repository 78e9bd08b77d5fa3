package sim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomPipeline builds a deadlock-free random workload: every process
// runs compute/io phases, ring exchanges executed in a safe order, and a
// global reduce each iteration.
func randomPipeline(rng *rand.Rand, nprocs int) [][]Stmt {
	iters := 1 + rng.Intn(10)
	progs := make([][]Stmt, nprocs)
	loadScale := make([]float64, nprocs)
	for i := range loadScale {
		loadScale[i] = 0.05 + rng.Float64()*0.4
	}
	blocking := rng.Intn(2) == 0
	for r := 0; r < nprocs; r++ {
		var iter []Stmt
		iter = append(iter, Compute{Module: "m", Function: "work", Mean: loadScale[r], Jitter: rng.Float64() * 0.5})
		if rng.Intn(2) == 0 {
			iter = append(iter, IO{Module: "m", Function: "ckpt", Mean: 0.01, Jitter: 0.2})
		}
		next := (r + 1) % nprocs
		prev := (r - 1 + nprocs) % nprocs
		send := Send{Module: "m", Function: "x", Tag: "ring", Dst: next, Bytes: rng.Intn(4096), Blocking: blocking}
		recv := Recv{Module: "m", Function: "x", Tag: "ring", Src: prev}
		if blocking {
			// Safe ring order: even ranks send first, odd receive first;
			// with an odd process count rank 0 still pairs correctly
			// because its partner (n-1) receives first.
			if r%2 == 0 {
				iter = append(iter, send, recv)
			} else {
				iter = append(iter, recv, send)
			}
		} else {
			iter = append(iter, send, recv)
		}
		iter = append(iter, AllReduce{Module: "m", Function: "red", Tag: "r"})
		progs[r] = []Stmt{Loop{Count: iters, Body: iter}}
	}
	return progs
}

func TestQuickTimeConservation(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nprocs := 2 + rng.Intn(5)
		if nprocs%2 == 1 {
			nprocs++ // keep the pairing order safe for blocking rings
		}
		progs := randomPipeline(rng, nprocs)
		c := DefaultConfig()
		c.Seed = seed
		s := New(c)
		for i, p := range progs {
			if err := Validate(p, nprocs); err != nil {
				return false
			}
			if _, err := s.AddProcess(procName(i), nodeName(i), p); err != nil {
				return false
			}
		}
		if err := s.Run(1e6); err != nil {
			return false
		}
		if !s.Done() {
			return false
		}
		for _, p := range s.Processes() {
			sum := p.Total(KindCPU) + p.Total(KindSyncWait) + p.Total(KindIOWait)
			if math.Abs(sum-p.FinishedAt()) > 1e-6*(1+p.FinishedAt()) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// flatten lists the primitive statements prog executes, in order.
func flatten(prog []Stmt) []Stmt {
	var out []Stmt
	for _, st := range prog {
		if l, ok := st.(Loop); ok {
			for i := 0; i < l.Count; i++ {
				out = append(out, flatten(l.Body)...)
			}
			continue
		}
		out = append(out, st)
	}
	return out
}

// stmtLabels is what a randomPipeline statement's interval must carry.
func stmtLabels(st Stmt) (function, tag string) {
	switch op := st.(type) {
	case Compute:
		return op.Function, ""
	case IO:
		return op.Function, ""
	case Send:
		return op.Function, op.Tag
	case Recv:
		return op.Function, op.Tag
	case AllReduce:
		return op.Function, op.Tag
	}
	return "", ""
}

// A process keeps its one activity in progress in itself, and events
// only name the process: an activity begun before the last one completed
// would overwrite it. So each process's intervals must be its program's
// statements, one for one and in order, each beginning at the very
// instant (bit for bit) the previous ended, from 0 to FinishedAt — and a
// second run of the seed must emit the identical stream, Sites included.
func TestQuickActivityIsNeverOverwritten(t *testing.T) {
	cfg := &quick.Config{MaxCount: 40}
	run := func(seed int64) ([][]Stmt, *Simulator, []Interval, bool) {
		rng := rand.New(rand.NewSource(seed))
		nprocs := 2 * (1 + rng.Intn(3))
		progs := randomPipeline(rng, nprocs)
		c := DefaultConfig()
		c.Seed = seed
		s := New(c)
		col := &collector{}
		s.AddObserver(col)
		for i, p := range progs {
			if _, err := s.AddProcess(procName(i), nodeName(i), p); err != nil {
				return nil, nil, nil, false
			}
		}
		if err := s.Run(1e6); err != nil || !s.Done() {
			return nil, nil, nil, false
		}
		return progs, s, col.ivs, true
	}
	prop := func(seed int64) bool {
		progs, s, ivs, ok := run(seed)
		if !ok {
			return false
		}
		for rank, p := range s.Processes() {
			want, at := flatten(progs[rank]), 0.0
			for _, iv := range ivs {
				if iv.Process != p.Name() {
					continue
				}
				if len(want) == 0 || iv.Start != at || iv.Site == 0 {
					return false
				}
				if f, tag := stmtLabels(want[0]); iv.Function != f || iv.Tag != tag {
					return false
				}
				want, at = want[1:], iv.End
			}
			if len(want) != 0 || at != p.FinishedAt() {
				return false
			}
		}
		_, _, again, ok := run(seed)
		if !ok || len(again) != len(ivs) {
			return false
		}
		for i := range ivs {
			if again[i] != ivs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickIntervalsAreWellFormed(t *testing.T) {
	cfg := &quick.Config{MaxCount: 40}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nprocs := 2 * (1 + rng.Intn(3))
		progs := randomPipeline(rng, nprocs)
		c := DefaultConfig()
		c.Seed = seed
		s := New(c)
		col := &collector{}
		s.AddObserver(col)
		for i, p := range progs {
			if _, err := s.AddProcess(procName(i), nodeName(i), p); err != nil {
				return false
			}
		}
		if err := s.Run(1e6); err != nil {
			return false
		}
		lastEnd := make(map[string]float64)
		for _, iv := range col.ivs {
			if iv.End < iv.Start || iv.Start < 0 {
				return false
			}
			if iv.Function == "" || iv.Process == "" || iv.Node == "" {
				return false
			}
			// Intervals of one process never overlap: each begins at or
			// after the previous one's end.
			if iv.Start+1e-9 < lastEnd[iv.Process] {
				return false
			}
			if iv.End > lastEnd[iv.Process] {
				lastEnd[iv.Process] = iv.End
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickMessageConservation(t *testing.T) {
	// Every send is eventually received: total message count equals
	// nprocs x iterations for the ring pattern.
	cfg := &quick.Config{MaxCount: 40}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nprocs := 2 * (1 + rng.Intn(3))
		progs := randomPipeline(rng, nprocs)
		c := DefaultConfig()
		c.Seed = seed
		s := New(c)
		col := &collector{}
		s.AddObserver(col)
		for i, p := range progs {
			if _, err := s.AddProcess(procName(i), nodeName(i), p); err != nil {
				return false
			}
		}
		if err := s.Run(1e6); err != nil || !s.Done() {
			return false
		}
		msgs := 0
		for _, iv := range col.ivs {
			msgs += iv.Msgs
		}
		// Recover the iteration count from the loop statement.
		iters := progs[0][0].(Loop).Count
		return msgs == nprocs*iters
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func procName(i int) string { return "proc" + string(rune('0'+i)) }
func nodeName(i int) string { return "node" + string(rune('0'+i)) }
