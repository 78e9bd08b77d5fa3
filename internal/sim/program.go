// Package sim is a deterministic discrete-event simulator of a
// message-passing parallel machine. It substitutes for the paper's IBM
// SP/2 testbed: processes interpret small phase programs (compute, send,
// receive, reduce, I/O, loops) and the engine attributes every moment of
// each process's execution to an activity interval labeled with the code
// resource (module/function), process, machine node, and message tag.
// Interval streams drive the dynamic instrumentation layer exactly the way
// Paradyn's instrumented application drives its data manager.
package sim

import "fmt"

// Stmt is one statement of a simulated process's program; labels names
// what a primitive statement's time is attributed to (a Loop has none).
type Stmt interface {
	labels() (module, function, tag string)
}

// Compute burns CPU in the given function for Mean seconds (± Jitter
// fraction, sampled per execution). Instrumentation perturbation slows
// compute phases.
type Compute struct {
	Module, Function string
	Mean, Jitter     float64
}

// IO blocks the process in I/O waiting for Mean seconds (± Jitter).
type IO struct {
	Module, Function string
	Mean, Jitter     float64
}

// Send transmits Bytes to process Dst (rank) with message tag Tag.
// Blocking sends use rendezvous semantics: the sender waits in
// synchronization until the receiver posts the matching receive, then both
// wait out the transfer. Non-blocking sends deposit the message eagerly
// and cost the sender only a copy overhead of CPU time.
type Send struct {
	Module, Function string
	Tag              string
	Dst              int
	Bytes            int
	Blocking         bool
}

// Recv receives a message with tag Tag from process Src (rank). The
// process waits in synchronization until the message transfer completes.
type Recv struct {
	Module, Function string
	Tag              string
	Src              int
}

// AllReduce is a global collective over every process in the simulation:
// each arriving process waits until all have arrived, then all resume
// after the collective latency. Waiting time is synchronization time
// attributed to the statement's function and tag.
type AllReduce struct {
	Module, Function string
	Tag              string
	Bytes            int
}

// Barrier is a global synchronization point over every live process:
// each arriving process waits until all have arrived. It is a zero-byte
// collective; waiting time is synchronization time attributed to the
// statement's function and tag.
type Barrier struct {
	Module, Function string
	Tag              string
}

// Loop repeats Body Count times; Count <= 0 loops forever.
type Loop struct {
	Count int
	Body  []Stmt
}

func (c Compute) labels() (string, string, string)   { return c.Module, c.Function, "" }
func (o IO) labels() (string, string, string)        { return o.Module, o.Function, "" }
func (s Send) labels() (string, string, string)      { return s.Module, s.Function, s.Tag }
func (r Recv) labels() (string, string, string)      { return r.Module, r.Function, r.Tag }
func (a AllReduce) labels() (string, string, string) { return a.Module, a.Function, a.Tag }
func (b Barrier) labels() (string, string, string)   { return b.Module, b.Function, b.Tag }
func (Loop) labels() (string, string, string)        { return "", "", "" }

// bound is a statement bound to the process that runs it, once, at
// AddProcess: what the per-event path would otherwise look up or build
// per execution.
type bound struct {
	op Stmt
	// iv is what completing op emits, less Start and End; only the Kind
	// of a Recv is not settled here (CPU if its message has arrived).
	iv   Interval
	ch   *channel    // Send, Recv: the (dst, src, tag) it travels on
	coll *collective // AllReduce, Barrier: the tag's rendezvous
	body []bound     // Loop
}

// bind binds prog to p. Sites are numbered in order of first appearance,
// and channels in order of first use.
func (s *Simulator) bind(p *Process, prog []Stmt) []bound {
	out := make([]bound, len(prog))
	for i, st := range prog {
		b := &out[i]
		b.op = st
		if st == nil {
			continue // Validate rejects it; proceed skips it
		}
		if l, ok := st.(Loop); ok {
			b.body = s.bind(p, l.Body)
			continue
		}
		mod, fn, tag := st.labels()
		b.iv = Interval{Kind: KindSyncWait, Calls: 1}
		switch op := st.(type) {
		case Compute:
			b.iv.Kind = KindCPU
		case IO:
			b.iv.Kind = KindIOWait
		case Send:
			b.iv.Msgs, b.iv.Bytes = 1, op.Bytes
			if !op.Blocking {
				b.iv.Kind = KindCPU
			}
			b.ch = s.channel(msgKey{dst: op.Dst, src: int(p.rank), tag: op.Tag})
		case Recv:
			b.ch = s.channel(msgKey{dst: int(p.rank), src: op.Src, tag: op.Tag})
		case AllReduce, Barrier:
			if s.collectives[tag] == nil {
				s.collectives[tag] = new(collective)
			}
			b.coll = s.collectives[tag]
		}
		k := siteKey{p.rank, mod, fn, tag}
		si, ok := s.sites[k]
		if !ok {
			si = site{len(s.sites) + 1, &Labels{Process: p.name, Node: p.node, Module: mod, Function: fn, Tag: tag}}
			s.sites[k] = si
		}
		b.iv.Labels, b.iv.Site = si.labels, si.n
	}
	return out
}

// channel returns the channel of k, made and numbered the first time it
// is asked for.
func (s *Simulator) channel(k msgKey) *channel {
	c := s.channels[k]
	if c == nil {
		c = &channel{id: int32(len(s.chans))}
		s.channels[k] = c
		s.chans = append(s.chans, c)
	}
	return c
}

// frame is one level of the program interpreter's control stack: a loop
// body, or the program itself as a loop of one iteration.
type frame struct {
	body      []bound
	idx       int
	remaining int // iterations left; <0 means forever
}

// cursor interprets a bound statement list with nested loops.
type cursor struct {
	stack []frame
}

func newCursor(prog []bound) *cursor {
	return &cursor{stack: []frame{{body: prog, remaining: 1}}}
}

// next returns the next primitive statement, descending into loops, or nil
// when the program is finished.
func (c *cursor) next() *bound {
	for len(c.stack) > 0 {
		f := &c.stack[len(c.stack)-1]
		if f.idx >= len(f.body) {
			if f.remaining < 0 { // infinite
				f.idx = 0
				continue
			}
			f.remaining--
			if f.remaining > 0 {
				f.idx = 0
				continue
			}
			c.stack = c.stack[:len(c.stack)-1]
			continue
		}
		st := &f.body[f.idx]
		f.idx++
		if l, ok := st.op.(Loop); ok {
			if len(st.body) == 0 || l.Count == 0 {
				continue
			}
			c.stack = append(c.stack, frame{body: st.body, remaining: l.Count})
			continue
		}
		return st
	}
	return nil
}

// Validate checks a program for obvious construction errors (negative
// durations, self-sends, empty function names on primitives).
func Validate(prog []Stmt, nprocs int) error {
	return validateBlock(prog, nprocs, 0)
}

func validateBlock(prog []Stmt, nprocs, depth int) error {
	if depth > 64 {
		return fmt.Errorf("sim: loop nesting deeper than 64")
	}
	for i, st := range prog {
		switch s := st.(type) {
		case Compute:
			if s.Mean < 0 || s.Jitter < 0 || s.Jitter > 1 || s.Function == "" {
				return fmt.Errorf("sim: bad Compute at %d: %+v", i, s)
			}
		case IO:
			if s.Mean < 0 || s.Jitter < 0 || s.Jitter > 1 || s.Function == "" {
				return fmt.Errorf("sim: bad IO at %d: %+v", i, s)
			}
		case Send:
			if s.Dst < 0 || s.Dst >= nprocs || s.Bytes < 0 || s.Tag == "" || s.Function == "" {
				return fmt.Errorf("sim: bad Send at %d: %+v", i, s)
			}
		case Recv:
			if s.Src < 0 || s.Src >= nprocs || s.Tag == "" || s.Function == "" {
				return fmt.Errorf("sim: bad Recv at %d: %+v", i, s)
			}
		case AllReduce:
			if s.Tag == "" || s.Function == "" || s.Bytes < 0 {
				return fmt.Errorf("sim: bad AllReduce at %d: %+v", i, s)
			}
		case Barrier:
			if s.Tag == "" || s.Function == "" {
				return fmt.Errorf("sim: bad Barrier at %d: %+v", i, s)
			}
		case Loop:
			if err := validateBlock(s.Body, nprocs, depth+1); err != nil {
				return err
			}
		default:
			return fmt.Errorf("sim: unknown statement %T at %d", st, i)
		}
	}
	return nil
}
