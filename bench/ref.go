package main

import (
	"encoding/json"
	"fmt"
	"time"
)

// The reference pace.
//
// This sandbox is a small virtual machine on a shared host, and the host
// takes processor throughput away from it in spells: for a fraction of a
// second to minutes at a time the same Go code runs up to 1.8 times
// slower, CPU time and wall time alike, and the share of a run spent in
// such spells goes from a tenth to nine tenths within a quarter hour. A
// dependent multiply chain does not see it (it reads the same to 1%), a
// pointer chase sees a tenth of it, code that keeps the core's units
// busy — JSON encoding, which is most of what pcd does — sees all of it.
// Twenty-second runs of one workload therefore read 18–36% apart
// (interquartile range over median of eight runs), whatever the
// statistic: medians, means, CPU seconds.
//
// So every time the end-to-end run reports is taken against a reference
// kernel run by the load generator itself between ops: a fixed amount of
// encoding/json work on a tree this file owns. Each measured interval is
// divided by the mean of the kernel timings on either side of it and
// multiplied by refNominal, the kernel's time on this class of machine
// when nothing is taken away. The result is a time in seconds at the
// reference pace: equal to the wall-clock reading on a quiet machine, and
// on a busy one the reading the same work would have had. The same eight
// runs, so scaled, read 2–9% apart. The kernel is the standard library's
// and this file's, so no change to the program can move it; what the
// program does slower or faster moves only the numerator. The wall-clock
// readings are printed beside the scaled ones.

// refNode is the reference kernel's input: a tree of 121 nodes that
// marshals to about 60 KB, maps, strings, slices of floats — the shapes a
// run record is made of.
type refNode struct {
	Name  string
	Vals  []float64
	Kids  []refNode
	Attrs map[string]string
}

func buildRefTree(depth int) refNode {
	n := refNode{
		Name:  fmt.Sprintf("node-%d", depth),
		Vals:  make([]float64, 16),
		Attrs: map[string]string{"state": "true", "focus": "/Code/module.c/function"},
	}
	for i := range n.Vals {
		n.Vals[i] = float64(i)*1.25 + float64(depth)/7
	}
	if depth > 0 {
		for i := 0; i < 3; i++ {
			n.Kids = append(n.Kids, buildRefTree(depth-1))
		}
	}
	return n
}

var refTree = buildRefTree(4)

const (
	// refRounds encode/decode rounds make one kernel run: about 2.4 ms, long
	// against a timer read and short against the spells it samples.
	refRounds = 3
	// refNominal is one kernel run on this class of machine (Xeon 2.1 GHz,
	// go1.24) with nothing taken away: the lower decile of some thousand
	// runs. It only sets the unit; comparisons between commits do not
	// depend on it.
	refNominal = 2400 * time.Microsecond
	// refEvery is the longest the load goes without sampling the kernel.
	// Spells flip several times a second, so the kernel has to sit close to
	// the ops it scales; at 2.4 ms every 20 ms it takes a tenth of the run.
	refEvery = 20 * time.Millisecond
)

// refKernel runs the reference kernel once and returns how long it took.
func refKernel() time.Duration {
	t0 := time.Now()
	for i := 0; i < refRounds; i++ {
		data, err := json.Marshal(&refTree)
		if err != nil {
			panic(err) // a fixed, valid input: only a bug gets here
		}
		var out refNode
		if err := json.Unmarshal(data, &out); err != nil {
			panic(err)
		}
	}
	return time.Since(t0)
}

// pacer scales wall-clock intervals to the reference pace. Each lap is
// the interval since the previous lap (or the start), bounded by a kernel
// run on either side; the kernel runs themselves are outside every lap.
type pacer struct {
	k     time.Duration // the kernel run that closed the previous lap
	at    time.Time     // when it ended
	wall  time.Duration // sum of laps as the clock read them
	paced time.Duration // sum of laps at the reference pace
	ks    []float64     // every kernel run, ms, for the report
}

func startPacer() *pacer {
	p := &pacer{}
	p.k = refKernel()
	p.ks = append(p.ks, ms(p.k))
	p.at = time.Now()
	return p
}

// lap closes the interval running since the last lap and returns the
// factor that takes a wall-clock time within it to the reference pace.
func (p *pacer) lap() float64 {
	d := time.Since(p.at)
	k := refKernel()
	scale := float64(refNominal) / (float64(p.k+k) / 2)
	p.wall += d
	p.paced += time.Duration(float64(d) * scale)
	p.k = k
	p.ks = append(p.ks, ms(k))
	p.at = time.Now()
	return scale
}

// since is how long the running lap has lasted.
func (p *pacer) since() time.Duration { return time.Since(p.at) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
