package sim

import (
	"fmt"
	"math/rand"
)

// Kind classifies how a process spent an interval of time.
type Kind int

// Activity kinds. Every moment of a live process's execution belongs to
// exactly one kind, so per-process kind totals sum to the process's
// elapsed lifetime (a property the tests verify).
const (
	KindCPU      Kind = iota // executing user computation
	KindSyncWait             // blocked in message or collective synchronization
	KindIOWait               // blocked in I/O
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindCPU:
		return "cpu"
	case KindSyncWait:
		return "sync_wait"
	case KindIOWait:
		return "io_wait"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Interval is one completed activity of one process. The string labels
// name the resources the activity is attributed to; Tag is empty for
// activities not associated with a synchronization object.
type Interval struct {
	Process, Node    string
	Module, Function string
	Tag              string
	Kind             Kind
	Start, End       float64
	Msgs, Bytes      int
	Calls            int
}

// Duration returns End-Start.
func (iv Interval) Duration() float64 { return iv.End - iv.Start }

// Observer receives every completed interval, in event order.
type Observer interface {
	OnInterval(Interval)
}

// Config holds the simulated machine's communication cost parameters.
type Config struct {
	MsgLatency     float64 // fixed per-message transfer latency (seconds)
	SecPerByte     float64 // additional transfer time per payload byte
	SendOverhead   float64 // CPU cost to initiate a non-blocking send
	RecvOverhead   float64 // CPU cost to complete an already-arrived receive
	CollectiveBase float64 // base latency of a collective operation
	Seed           int64   // RNG seed for duration jitter
	MaxEvents      int64   // safety cap on processed events (0 = default)
}

// DefaultConfig returns communication parameters loosely modeled on an
// IBM SP/2-class switch (tens of microseconds of latency, ~100 MB/s).
func DefaultConfig() Config {
	return Config{
		MsgLatency:     40e-6,
		SecPerByte:     1.0e-8,
		SendOverhead:   10e-6,
		RecvOverhead:   5e-6,
		CollectiveBase: 80e-6,
		Seed:           1,
		MaxEvents:      200_000_000,
	}
}

type event struct {
	at  float64
	seq int64
	fn  func()
}

// before is the queue's strict total order: time, then scheduling order.
func (e event) before(o event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// eventQueue is a binary min-heap of events under before. seq is unique,
// so the pop order is the sorted order whatever the heap's shape.
type eventQueue []event

func (q *eventQueue) push(e event) {
	h := append(*q, e)
	*q = h
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if !h[i].before(h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// pop removes the earliest event. The vacated slot is zeroed so the
// backing array does not keep the executed closure, and the process and
// statement it captured, reachable.
func (q *eventQueue) pop() event {
	h := *q
	n := len(h) - 1
	top := h[0]
	h[0] = h[n]
	h[n] = event{}
	h = h[:n]
	*q = h
	for i := 0; ; {
		least := i
		if l := 2*i + 1; l < n && h[l].before(h[least]) {
			least = l
		}
		if r := 2*i + 2; r < n && h[r].before(h[least]) {
			least = r
		}
		if least == i {
			return top
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

// Process is one simulated application process.
type Process struct {
	rank int
	name string
	node string
	cur  *cursor

	blocked    bool
	done       bool
	finishedAt float64

	totals [3]float64 // indexed by Kind
	msgs   int
	bytes  int
	calls  int
}

// Name returns the process name (e.g. "poisson_0").
func (p *Process) Name() string { return p.name }

// Node returns the machine node the process runs on.
func (p *Process) Node() string { return p.node }

// Rank returns the process's index in AddProcess order.
func (p *Process) Rank() int { return p.rank }

// Done reports whether the process has finished its program.
func (p *Process) Done() bool { return p.done }

// FinishedAt returns the virtual time the process completed (only
// meaningful when Done).
func (p *Process) FinishedAt() float64 { return p.finishedAt }

// Total returns the accumulated time of the given kind (0 for a kind no
// interval carries).
func (p *Process) Total(k Kind) float64 {
	if k < 0 || int(k) >= len(p.totals) {
		return 0
	}
	return p.totals[k]
}

// Msgs returns the number of completed message operations charged to the
// process.
func (p *Process) Msgs() int { return p.msgs }

type msgKey struct {
	dst, src int
	tag      string
}

type message struct {
	arrival float64
	bytes   int
}

type pendingSend struct {
	p     *Process
	bytes int
	start float64
	fn    Send
}

type pendingRecv struct {
	p     *Process
	start float64
	fn    Recv
}

type collective struct {
	arrived []collArrival
	bytes   int
}

type collArrival struct {
	p     *Process
	start float64
	fn    AllReduce
}

// Simulator is the discrete-event engine.
type Simulator struct {
	cfg   Config
	now   float64
	seq   int64
	queue eventQueue
	rng   *rand.Rand

	procs     []*Process
	active    int
	started   bool
	processed int64

	channels     map[msgKey][]message
	pendingSends map[msgKey][]pendingSend
	pendingRecvs map[msgKey]*pendingRecv
	collectives  map[string]*collective

	observers []Observer
	slowdown  func(proc string) float64
}

// New creates a simulator with the given configuration.
func New(cfg Config) *Simulator {
	if cfg.MaxEvents <= 0 {
		cfg.MaxEvents = DefaultConfig().MaxEvents
	}
	return &Simulator{
		cfg:          cfg,
		rng:          rand.New(rand.NewSource(cfg.Seed)),
		channels:     make(map[msgKey][]message),
		pendingSends: make(map[msgKey][]pendingSend),
		pendingRecvs: make(map[msgKey]*pendingRecv),
		collectives:  make(map[string]*collective),
	}
}

// AddProcess registers a process running prog on the named node. Must be
// called before Start. The process's rank is its registration order.
func (s *Simulator) AddProcess(name, node string, prog []Stmt) (*Process, error) {
	if s.started {
		return nil, fmt.Errorf("sim: cannot add process after Start")
	}
	if name == "" || node == "" {
		return nil, fmt.Errorf("sim: process and node names must be non-empty")
	}
	for _, q := range s.procs {
		if q.name == name {
			return nil, fmt.Errorf("sim: duplicate process name %q", name)
		}
	}
	p := &Process{
		rank: len(s.procs),
		name: name,
		node: node,
		cur:  newCursor(prog),
	}
	s.procs = append(s.procs, p)
	return p, nil
}

// Processes returns the registered processes in rank order.
func (s *Simulator) Processes() []*Process {
	out := make([]*Process, len(s.procs))
	copy(out, s.procs)
	return out
}

// AddObserver registers an interval observer.
func (s *Simulator) AddObserver(o Observer) { s.observers = append(s.observers, o) }

// SetSlowdown installs the perturbation hook: compute durations are
// multiplied by the returned factor (>= 1) at schedule time. The dynamic
// instrumentation layer uses this to model probe overhead.
func (s *Simulator) SetSlowdown(f func(proc string) float64) { s.slowdown = f }

// Now returns the current virtual time.
func (s *Simulator) Now() float64 { return s.now }

// Done reports whether every process has completed its program.
func (s *Simulator) Done() bool { return s.started && s.active == 0 }

// Deadlocked reports whether the simulation can make no further progress:
// processes remain unfinished but no events are scheduled — every live
// process is blocked on a communication that can never complete (e.g. two
// blocking senders waiting on each other's receives).
func (s *Simulator) Deadlocked() bool {
	return s.started && s.active > 0 && len(s.queue) == 0
}

// BlockedProcesses returns the names of unfinished processes currently
// blocked in a send, receive or collective, for deadlock diagnostics.
func (s *Simulator) BlockedProcesses() []string {
	var out []string
	for _, p := range s.procs {
		if !p.done && p.blocked {
			out = append(out, p.name)
		}
	}
	return out
}

// EventsProcessed returns the number of events executed so far.
func (s *Simulator) EventsProcessed() int64 { return s.processed }

// Start schedules the first step of every process. Validation of each
// program against the process count happens here.
func (s *Simulator) Start() error {
	if s.started {
		return fmt.Errorf("sim: already started")
	}
	if len(s.procs) == 0 {
		return fmt.Errorf("sim: no processes")
	}
	s.started = true
	s.active = len(s.procs)
	for _, p := range s.procs {
		p := p
		s.schedule(0, func() { s.proceed(p) })
	}
	return nil
}

// RunUntil processes every event with timestamp <= t and advances the
// clock to t. It returns an error only if the event cap is exceeded
// (which indicates a zero-time loop in a workload program).
func (s *Simulator) RunUntil(t float64) error {
	if !s.started {
		if err := s.Start(); err != nil {
			return err
		}
	}
	for len(s.queue) > 0 && s.queue[0].at <= t {
		e := s.queue.pop()
		if e.at > s.now {
			s.now = e.at
		}
		s.processed++
		if s.processed > s.cfg.MaxEvents {
			return fmt.Errorf("sim: event cap %d exceeded at t=%.3f (zero-time loop?)", s.cfg.MaxEvents, s.now)
		}
		e.fn()
	}
	if t > s.now {
		s.now = t
	}
	return nil
}

// Run processes events until every process finishes or maxTime is
// reached.
func (s *Simulator) Run(maxTime float64) error {
	if !s.started {
		if err := s.Start(); err != nil {
			return err
		}
	}
	for !s.Done() && len(s.queue) > 0 && s.queue[0].at <= maxTime {
		if err := s.RunUntil(s.queue[0].at); err != nil {
			return err
		}
	}
	if s.Done() {
		return nil
	}
	if s.Deadlocked() {
		return fmt.Errorf("sim: deadlock at t=%.3f: processes %v are blocked forever",
			s.now, s.BlockedProcesses())
	}
	return s.RunUntil(maxTime)
}

func (s *Simulator) schedule(at float64, fn func()) {
	s.seq++
	s.queue.push(event{at: at, seq: s.seq, fn: fn})
}

// emit completes one activity of p: the interval is labelled with p's
// name and node, charged to p's totals and offered to every observer.
func (s *Simulator) emit(p *Process, iv Interval) {
	iv.Process, iv.Node = p.name, p.node
	if iv.End < iv.Start {
		iv.End = iv.Start
	}
	p.totals[iv.Kind] += iv.Duration()
	p.msgs += iv.Msgs
	p.bytes += iv.Bytes
	p.calls += iv.Calls
	for _, o := range s.observers {
		o.OnInterval(iv)
	}
}

func (s *Simulator) slow(p *Process) float64 {
	if s.slowdown == nil {
		return 1
	}
	f := s.slowdown(p.name)
	if f < 1 {
		return 1
	}
	return f
}

func (s *Simulator) sample(mean, jitter float64) float64 {
	if jitter <= 0 {
		return mean
	}
	u := s.rng.Float64()*2 - 1
	d := mean * (1 + jitter*u)
	if d < 0 {
		return 0
	}
	return d
}

func (s *Simulator) xfer(bytes int) float64 {
	return s.cfg.MsgLatency + float64(bytes)*s.cfg.SecPerByte
}

// proceed executes the next statement of p at the current time.
func (s *Simulator) proceed(p *Process) {
	if p.done {
		return
	}
	st := p.cur.next()
	if st == nil {
		p.done = true
		p.finishedAt = s.now
		s.active--
		return
	}
	start := s.now
	switch op := st.(type) {
	case Compute:
		dur := s.sample(op.Mean, op.Jitter) * s.slow(p)
		s.schedule(start+dur, func() {
			s.emit(p, Interval{
				Module: op.Module, Function: op.Function,
				Kind: KindCPU, Start: start, End: s.now, Calls: 1,
			})
			s.proceed(p)
		})
	case IO:
		dur := s.sample(op.Mean, op.Jitter)
		s.schedule(start+dur, func() {
			s.emit(p, Interval{
				Module: op.Module, Function: op.Function,
				Kind: KindIOWait, Start: start, End: s.now, Calls: 1,
			})
			s.proceed(p)
		})
	case Send:
		s.doSend(p, op)
	case Recv:
		s.doRecv(p, op)
	case AllReduce:
		s.doReduce(p, op)
	case Barrier:
		s.doReduce(p, AllReduce{Module: op.Module, Function: op.Function, Tag: op.Tag})
	default:
		// Validate() rejects unknown statements before Start; skip defensively.
		s.schedule(start, func() { s.proceed(p) })
	}
}

func (s *Simulator) doSend(p *Process, op Send) {
	key := msgKey{dst: op.Dst, src: p.rank, tag: op.Tag}
	start := s.now
	if !op.Blocking {
		// Eager: pay copy overhead as CPU, deposit the message, and let
		// the arrival event wake any waiting receiver.
		overhead := s.cfg.SendOverhead * s.slow(p)
		arrival := start + overhead + s.xfer(op.Bytes)
		s.channels[key] = append(s.channels[key], message{arrival: arrival, bytes: op.Bytes})
		s.schedule(start+overhead, func() {
			s.emit(p, Interval{
				Module: op.Module, Function: op.Function,
				Tag: op.Tag, Kind: KindCPU, Start: start, End: s.now, Msgs: 1, Bytes: op.Bytes, Calls: 1,
			})
			s.proceed(p)
		})
		s.schedule(arrival, func() { s.deliver(key) })
		return
	}
	// Rendezvous: if the receiver is already waiting, the transfer starts
	// now; otherwise the sender blocks until the receive is posted.
	if pr := s.pendingRecvs[key]; pr != nil {
		delete(s.pendingRecvs, key)
		end := start + s.xfer(op.Bytes)
		recv := *pr
		recv.p.blocked = false
		s.schedule(end, func() {
			s.emit(p, Interval{
				Module: op.Module, Function: op.Function,
				Tag: op.Tag, Kind: KindSyncWait, Start: start, End: s.now, Msgs: 1, Bytes: op.Bytes, Calls: 1,
			})
			s.emit(recv.p, Interval{
				Module: recv.fn.Module, Function: recv.fn.Function,
				Tag: recv.fn.Tag, Kind: KindSyncWait, Start: recv.start, End: s.now, Calls: 1,
			})
			s.proceed(p)
			s.proceed(recv.p)
		})
		return
	}
	s.pendingSends[key] = append(s.pendingSends[key], pendingSend{p: p, bytes: op.Bytes, start: start, fn: op})
	p.blocked = true
}

func (s *Simulator) doRecv(p *Process, op Recv) {
	key := msgKey{dst: p.rank, src: op.Src, tag: op.Tag}
	start := s.now
	// Eagerly sent message already in the channel?
	if q := s.channels[key]; len(q) > 0 {
		msg := q[0]
		s.channels[key] = q[1:]
		if msg.arrival <= start {
			// Already arrived: only the receive overhead is paid, as CPU.
			end := start + s.cfg.RecvOverhead*s.slow(p)
			s.schedule(end, func() {
				s.emit(p, Interval{
					Module: op.Module, Function: op.Function,
					Tag: op.Tag, Kind: KindCPU, Start: start, End: s.now, Calls: 1,
				})
				s.proceed(p)
			})
			return
		}
		// In flight: wait out the remaining transfer as synchronization.
		s.schedule(msg.arrival, func() {
			s.emit(p, Interval{
				Module: op.Module, Function: op.Function,
				Tag: op.Tag, Kind: KindSyncWait, Start: start, End: s.now, Calls: 1,
			})
			s.proceed(p)
		})
		return
	}
	// A blocking sender waiting in rendezvous?
	if ps := s.pendingSends[key]; len(ps) > 0 {
		rec := ps[0]
		s.pendingSends[key] = ps[1:]
		end := start + s.xfer(rec.bytes)
		s.schedule(end, func() {
			rec.p.blocked = false
			s.emit(rec.p, Interval{
				Module: rec.fn.Module, Function: rec.fn.Function,
				Tag: rec.fn.Tag, Kind: KindSyncWait, Start: rec.start, End: s.now, Msgs: 1, Bytes: rec.bytes, Calls: 1,
			})
			s.emit(p, Interval{
				Module: op.Module, Function: op.Function,
				Tag: op.Tag, Kind: KindSyncWait, Start: start, End: s.now, Calls: 1,
			})
			s.proceed(rec.p)
			s.proceed(p)
		})
		return
	}
	// Nothing available: block until a message or sender shows up.
	s.pendingRecvs[key] = &pendingRecv{p: p, start: start, fn: op}
	p.blocked = true
}

// deliver wakes a receiver blocked on key if its message has arrived.
func (s *Simulator) deliver(key msgKey) {
	pr := s.pendingRecvs[key]
	if pr == nil {
		return
	}
	q := s.channels[key]
	if len(q) == 0 || q[0].arrival > s.now {
		return
	}
	s.channels[key] = q[1:]
	delete(s.pendingRecvs, key)
	pr.p.blocked = false
	s.emit(pr.p, Interval{
		Module: pr.fn.Module, Function: pr.fn.Function,
		Tag: pr.fn.Tag, Kind: KindSyncWait, Start: pr.start, End: s.now, Calls: 1,
	})
	s.proceed(pr.p)
}

func (s *Simulator) doReduce(p *Process, op AllReduce) {
	c := s.collectives[op.Tag]
	if c == nil {
		c = &collective{}
		s.collectives[op.Tag] = c
	}
	c.arrived = append(c.arrived, collArrival{p: p, start: s.now, fn: op})
	if op.Bytes > c.bytes {
		c.bytes = op.Bytes
	}
	p.blocked = true
	if len(c.arrived) < s.liveProcs() {
		return
	}
	delete(s.collectives, op.Tag)
	release := s.now + s.cfg.CollectiveBase + float64(c.bytes)*s.cfg.SecPerByte
	for _, a := range c.arrived {
		a := a
		s.schedule(release, func() {
			a.p.blocked = false
			s.emit(a.p, Interval{
				Module: a.fn.Module, Function: a.fn.Function,
				Tag: a.fn.Tag, Kind: KindSyncWait, Start: a.start, End: s.now, Calls: 1,
			})
			s.proceed(a.p)
		})
	}
}

// liveProcs counts processes that have not finished; collectives complete
// when every live process arrives.
func (s *Simulator) liveProcs() int {
	n := 0
	for _, p := range s.procs {
		if !p.done {
			n++
		}
	}
	return n
}
