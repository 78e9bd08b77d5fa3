package app

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sim"
)

// Every record, table and diagnosis downstream is a function of the
// interval stream, and records.sha256 can only say "something moved".
// This test holds the stream itself to digests committed in
// testdata/intervals.sha256 (generated by the closure-per-event engine
// this one replaced, so do not regenerate it to make a refactor pass):
// the nine buildable app/versions
// at seed 1 over 20 virtual seconds, bare and under a slowdown hook with
// a fixed per-rank factor — every interval in emission order with every
// field but Site, floats by their bits — then the event count and each
// process's totals.

// streamHash is a sim.Observer that digests what it is shown.
type streamHash struct {
	h   hash.Hash
	buf []byte
}

func (s *streamHash) str(v string) {
	s.buf = binary.AppendUvarint(s.buf, uint64(len(v)))
	s.buf = append(s.buf, v...)
}

func (s *streamHash) num(v uint64) { s.buf = binary.BigEndian.AppendUint64(s.buf, v) }

func (s *streamHash) flush() {
	s.h.Write(s.buf)
	s.buf = s.buf[:0]
}

func (s *streamHash) OnInterval(iv sim.Interval) {
	for _, v := range []string{iv.Process, iv.Node, iv.Module, iv.Function, iv.Tag} {
		s.str(v)
	}
	for _, v := range []uint64{
		uint64(iv.Kind), math.Float64bits(iv.Start), math.Float64bits(iv.End),
		uint64(iv.Msgs), uint64(iv.Bytes), uint64(iv.Calls),
	} {
		s.num(v)
	}
	s.flush()
}

func TestIntervalStreamPinned(t *testing.T) {
	corpus := []struct{ app, version string }{
		{"poisson", "A"}, {"poisson", "B"}, {"poisson", "C"}, {"poisson", "D"},
		{"ocean", ""}, {"tester", ""}, {"seismic", ""}, {"mw", ""}, {"pipeline", ""},
	}
	var got strings.Builder
	for _, c := range corpus {
		a, err := Build(c.app, c.version, Options{})
		if err != nil {
			t.Fatal(err)
		}
		factor := make([]float64, a.NProcs())
		for rank := range factor {
			factor[rank] = 1 + 0.03*float64(rank%4)
		}
		for _, mode := range []string{"bare", "slowed"} {
			cfg := sim.DefaultConfig()
			cfg.Seed = 1
			s, err := a.NewSimulator(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if mode == "slowed" {
				s.SetSlowdown(func(rank int) float64 { return factor[rank] })
			}
			sh := &streamHash{h: sha256.New()}
			s.AddObserver(sh)
			if err := s.RunUntil(20); err != nil {
				t.Fatalf("%s %s: %v", a.FullName(), mode, err)
			}
			sh.num(uint64(s.EventsProcessed()))
			for _, p := range s.Processes() {
				for _, k := range []sim.Kind{sim.KindCPU, sim.KindSyncWait, sim.KindIOWait} {
					sh.num(math.Float64bits(p.Total(k)))
				}
				sh.num(uint64(p.Msgs()))
			}
			sh.flush()
			fmt.Fprintf(&got, "%x  %s/%s events=%d\n", sh.h.Sum(nil), a.FullName(), mode, s.EventsProcessed())
		}
	}
	want, err := os.ReadFile(filepath.Join("testdata", "intervals.sha256"))
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("interval streams differ from testdata/intervals.sha256; this build produces:\n%s", got.String())
	}
}

// An event is a record and a message a float in its channel's queue, so
// a warmed simulator — queue, channel and control-stack capacity grown —
// runs without allocating: under one allocation per twenty events over a
// virtual second of bare Poisson C (a closure per event would make it
// more than one per event).
func TestRunSteadyStateAllocationBound(t *testing.T) {
	a, err := Poisson("C", Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := a.NewSimulator(sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	until := 10.0
	if err := s.RunUntil(until); err != nil {
		t.Fatal(err)
	}
	before := s.EventsProcessed()
	const runs = 20
	allocs := testing.AllocsPerRun(runs, func() {
		until++
		if err := s.RunUntil(until); err != nil {
			t.Fatal(err)
		}
	})
	events := float64(s.EventsProcessed()-before) / (runs + 1) // AllocsPerRun warms up with one run more
	if events < 100 {
		t.Fatalf("only %.0f events a virtual second", events)
	}
	if allocs*20 > events {
		t.Errorf("%.1f allocations over %.0f events a virtual second, want under one per twenty", allocs, events)
	}
	t.Logf("%.1f allocations, %.0f events a virtual second", allocs, events)
}
