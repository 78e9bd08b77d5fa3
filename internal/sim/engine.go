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

// Labels name the resources an activity is attributed to; Tag is empty
// for activities not associated with a synchronization object.
type Labels struct {
	Process, Node    string
	Module, Function string
	Tag              string
}

// Interval is one completed activity of one process. Its Labels are
// shared: a simulator hands every interval of one site the same *Labels,
// made once when the program is bound, so an interval is a few numbers
// and one pointer, never nil on an interval an observer is handed. An
// observer must not change them.
//
// Site numbers the label set densely from 1 within the simulator that
// emitted the interval, so an observer can index what it keeps per
// label set instead of hashing five strings. It means something only
// within that simulator — an observer serves one — and is 0 on an
// interval no simulator emitted (a trace line, a streamed sample, a
// test literal), whose labels are then all there is.
type Interval struct {
	*Labels
	Kind        Kind
	Start, End  float64
	Msgs, Bytes int
	Calls       int
	Site        int
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

// eventKind says what fire does with an event's operands.
type eventKind uint8

const (
	evProceed eventKind = iota // p executes its next statement
	evDone                     // p's activity completes and p goes on
	evPair                     // a rendezvous transfer completes: sender p, then receiver q
	evDeliver                  // an eager message arrives on ch
)

// event is a record with no captured state and no pointer: it names
// processes by rank and a channel by id, and what it acts on beyond its
// operands (labels, start, message counts) is the activity its process
// is in.
type event struct {
	at   float64
	seq  int64
	kind eventKind
	p, q int32 // ranks
	ch   int32 // channel id
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

// pop removes the earliest event.
func (q *eventQueue) pop() event {
	h := *q
	n := len(h) - 1
	top := h[0]
	h[0] = h[n]
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
	rank int32
	name string
	node string
	cur  *cursor

	// act is the activity in progress — a process has at most one — as
	// the interval its completion emits: everything but End.
	act Interval

	blocked    bool
	done       bool
	finishedAt float64

	totals [3]float64 // indexed by Kind
	msgs   int
}

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

// channel is the traffic of one (dst, src, tag): the eager messages not
// yet received and whichever side is waiting for the other. Either side
// is one process with one activity in progress (the sender's carries the
// bytes), so at most one sender and one receiver wait.
type channel struct {
	id       int32     // its index in Simulator.chans
	arrivals []float64 // eager messages' arrival times in send order; [head:] are unreceived
	head     int
	sender   *Process // blocked in a rendezvous send
	recv     *Process // blocked in a receive
}

func (c *channel) pending() bool { return c.head < len(c.arrivals) }

func (c *channel) push(arrival float64) {
	// Reuse the received prefix, once it is at least half, before growing.
	if n := len(c.arrivals); n == cap(c.arrivals) && 2*c.head >= n {
		c.arrivals = c.arrivals[:copy(c.arrivals, c.arrivals[c.head:])]
		c.head = 0
	}
	c.arrivals = append(c.arrivals, arrival)
}

func (c *channel) pop() float64 {
	c.head++
	return c.arrivals[c.head-1]
}

// collective is one tag's rendezvous of every live process.
type collective struct {
	arrived []*Process
	bytes   int
}

// siteKey is a label set; the process stands for its name and node.
type siteKey struct {
	rank                  int32
	module, function, tag string
}

// site is a label set's number and its one Labels.
type site struct {
	n      int
	labels *Labels
}

// Simulator is the discrete-event engine.
type Simulator struct {
	cfg   Config
	now   float64
	seq   int64
	queue eventQueue
	rng   *rand.Rand

	procs     []*Process
	active    int // processes that have not finished
	started   bool
	processed int64

	// What AddProcess binds statements to, looked up there only: the
	// per-event path holds the *channel, *collective and site itself, and
	// an event names its channel by its index in chans.
	channels    map[msgKey]*channel
	chans       []*channel
	collectives map[string]*collective
	sites       map[siteKey]site

	observers []Observer
	slowdown  func(rank int) float64
}

// New creates a simulator with the given configuration.
func New(cfg Config) *Simulator {
	if cfg.MaxEvents <= 0 {
		cfg.MaxEvents = DefaultConfig().MaxEvents
	}
	return &Simulator{
		cfg:         cfg,
		rng:         rand.New(rand.NewSource(cfg.Seed)),
		channels:    make(map[msgKey]*channel),
		collectives: make(map[string]*collective),
		sites:       make(map[siteKey]site),
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
	p := &Process{rank: int32(len(s.procs)), name: name, node: node}
	p.cur = newCursor(s.bind(p, prog))
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
// multiplied by the factor (>= 1) it returns for the process's rank at
// schedule time. The dynamic instrumentation layer uses this to model
// probe overhead.
func (s *Simulator) SetSlowdown(f func(rank int) float64) { s.slowdown = f }

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

// Start schedules the first step of every process.
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
		s.schedule(event{kind: evProceed, p: p.rank})
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
		s.fire(e)
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

func (s *Simulator) schedule(e event) {
	s.seq++
	e.seq = s.seq
	s.queue.push(e)
}

func (s *Simulator) fire(e event) {
	switch e.kind {
	case evProceed:
		s.proceed(s.procs[e.p])
	case evDone:
		p := s.procs[e.p]
		p.blocked = false // it was if this is a collective's release
		s.emit(p)
		s.proceed(p)
	case evPair:
		p, q := s.procs[e.p], s.procs[e.q]
		p.blocked = false // it was if the sender came first
		s.emit(p)
		s.emit(q)
		s.proceed(p)
		s.proceed(q)
	case evDeliver:
		s.deliver(s.chans[e.ch])
	}
}

// emit completes p's activity at the current time: the interval is
// charged to p's totals and offered to every observer.
func (s *Simulator) emit(p *Process) {
	iv := &p.act
	iv.End = s.now
	p.totals[iv.Kind] += iv.Duration()
	p.msgs += iv.Msgs
	for _, o := range s.observers {
		o.OnInterval(*iv)
	}
}

func (s *Simulator) slow(p *Process) float64 {
	if s.slowdown == nil {
		return 1
	}
	f := s.slowdown(int(p.rank))
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
	p.act = st.iv
	p.act.Start = start
	switch op := st.op.(type) {
	case Compute:
		dur := s.sample(op.Mean, op.Jitter) * s.slow(p)
		s.schedule(event{at: start + dur, kind: evDone, p: p.rank})
	case IO:
		s.schedule(event{at: start + s.sample(op.Mean, op.Jitter), kind: evDone, p: p.rank})
	case Send:
		s.doSend(p, st.ch, op)
	case Recv:
		s.doRecv(p, st.ch)
	case AllReduce:
		s.doReduce(p, st.coll, op.Bytes)
	case Barrier:
		s.doReduce(p, st.coll, 0)
	default:
		// Validate() rejects unknown statements before Start; skip defensively.
		s.schedule(event{at: start, kind: evProceed, p: p.rank})
	}
}

func (s *Simulator) doSend(p *Process, ch *channel, op Send) {
	start := s.now
	if !op.Blocking {
		// Eager: pay copy overhead as CPU, deposit the message, and let
		// the arrival event wake any waiting receiver.
		overhead := s.cfg.SendOverhead * s.slow(p)
		arrival := start + overhead + s.xfer(op.Bytes)
		ch.push(arrival)
		s.schedule(event{at: start + overhead, kind: evDone, p: p.rank})
		s.schedule(event{at: arrival, kind: evDeliver, ch: ch.id})
		return
	}
	// Rendezvous: if the receiver is already waiting, the transfer starts
	// now; otherwise the sender blocks until the receive is posted.
	if r := ch.recv; r != nil {
		ch.recv = nil
		r.blocked = false
		s.schedule(event{at: start + s.xfer(op.Bytes), kind: evPair, p: p.rank, q: r.rank})
		return
	}
	ch.sender = p
	p.blocked = true
}

func (s *Simulator) doRecv(p *Process, ch *channel) {
	start := s.now
	// Eagerly sent message already in the channel?
	if ch.pending() {
		// In flight: wait out the remaining transfer as synchronization.
		end := ch.pop()
		if end <= start {
			// Already arrived: only the receive overhead is paid, as CPU.
			p.act.Kind = KindCPU
			end = start + s.cfg.RecvOverhead*s.slow(p)
		}
		s.schedule(event{at: end, kind: evDone, p: p.rank})
		return
	}
	// A blocking sender waiting in rendezvous?
	if snd := ch.sender; snd != nil {
		ch.sender = nil
		s.schedule(event{at: start + s.xfer(snd.act.Bytes), kind: evPair, p: snd.rank, q: p.rank})
		return
	}
	// Nothing available: block until a message or sender shows up.
	ch.recv = p
	p.blocked = true
}

// deliver wakes the receiver blocked on ch if its message has arrived.
func (s *Simulator) deliver(ch *channel) {
	r := ch.recv
	if r == nil || !ch.pending() || ch.arrivals[ch.head] > s.now {
		return
	}
	ch.pop()
	ch.recv = nil
	r.blocked = false
	s.emit(r)
	s.proceed(r)
}

// doReduce has p arrive at a collective, which completes when every
// live process has.
func (s *Simulator) doReduce(p *Process, c *collective, bytes int) {
	c.arrived = append(c.arrived, p)
	if bytes > c.bytes {
		c.bytes = bytes
	}
	p.blocked = true
	if len(c.arrived) < s.active {
		return
	}
	release := s.now + s.cfg.CollectiveBase + float64(c.bytes)*s.cfg.SecPerByte
	for _, a := range c.arrived {
		s.schedule(event{at: release, kind: evDone, p: a.rank})
	}
	c.arrived, c.bytes = c.arrived[:0], 0
}
