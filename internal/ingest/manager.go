package ingest

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/consultant"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/metric"
	"repro/internal/resource"
)

// Sentinel errors the service layer maps onto wire statuses.
var (
	// ErrStreamBusy means the stream's bounded batch queue is full —
	// backpressure; retry after a short wait (429 on the wire).
	ErrStreamBusy = errors.New("ingest: stream queue full, retry later")
	// ErrNoStream means the (app, version, run) triple has no active
	// stream (404 on the wire).
	ErrNoStream = errors.New("ingest: no such active stream")
	// ErrStreamExists rejects a second Start for an active triple (409).
	ErrStreamExists = errors.New("ingest: stream already active")
	// ErrOutOfOrder rejects a batch that skips ahead of the sequence
	// (409); the transport below one reporter is ordered, so a gap
	// means a lost batch.
	ErrOutOfOrder = errors.New("ingest: batch out of sequence")
	// ErrClosed rejects work after the manager shut down (503).
	ErrClosed = errors.New("ingest: intake is shut down")
	// ErrTooManyStreams bounds concurrently active streams (429).
	ErrTooManyStreams = errors.New("ingest: too many active streams, retry later")
)

// ManagerOptions configure the per-daemon intake.
type ManagerOptions struct {
	// QueueDepth bounds the batches queued per stream awaiting the
	// stream's worker; a full queue answers ErrStreamBusy (<= 0 means 8).
	QueueDepth int
	// MaxStreams bounds concurrently active streams (<= 0 means 64).
	MaxStreams int
	// IdleTimeout finalizes (with save) a stream that has received
	// nothing for this long — the end-of-stream marker for clients that
	// died without sending one (<= 0 means 2 minutes).
	IdleTimeout time.Duration
	// EvalBudget tunes each stream's engine (see EngineOptions).
	EvalBudget int
	// HarvestSources caps how many stored runs of (app, version) are
	// harvested into a new stream's directive set (<= 0 means 8, the
	// last in canonical order).
	HarvestSources int
	// Now is a test seam for the idle clock; nil means time.Now.
	Now func() time.Time
	// feedHook is a test seam run by the worker before each batch is
	// applied; tests block it to fill queues deterministically.
	feedHook func()
}

func (o ManagerOptions) normalize() ManagerOptions {
	if o.QueueDepth <= 0 {
		o.QueueDepth = 8
	}
	if o.MaxStreams <= 0 {
		o.MaxStreams = 64
	}
	if o.IdleTimeout <= 0 {
		o.IdleTimeout = 2 * time.Minute
	}
	if o.HarvestSources <= 0 {
		o.HarvestSources = 8
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// Stats is the intake's /statsz block.
type Stats struct {
	// Active is the number of live streams right now.
	Active int `json:"active"`
	// Started / Finalized / IdleFinalized / Discarded count stream
	// lifecycles: opened, finalized by an end-of-stream marker,
	// finalized by the idle timeout, dropped without saving.
	Started       uint64 `json:"started"`
	Finalized     uint64 `json:"finalized"`
	IdleFinalized uint64 `json:"idle_finalized"`
	Discarded     uint64 `json:"discarded"`
	// Samples / Batches count accepted intake volume; RejectedFull
	// counts batches refused with backpressure, DupBatches resends
	// acknowledged idempotently, OutOfOrder gap rejections.
	Samples      uint64 `json:"samples"`
	Batches      uint64 `json:"batches"`
	RejectedFull uint64 `json:"rejected_full"`
	DupBatches   uint64 `json:"dup_batches"`
	OutOfOrder   uint64 `json:"out_of_order"`
	// HarvestedStreams counts streams that started with at least one
	// historical directive steering them.
	HarvestedStreams uint64 `json:"harvested_streams"`
}

type managerCounters struct {
	started, finalized, idleFinalized, discarded atomic.Uint64
	samples, batches, rejectedFull, dupBatches   atomic.Uint64
	outOfOrder, harvestedStreams                 atomic.Uint64
}

// feedMsg is one unit of the per-stream queue: a sample batch, or the
// end-of-stream marker carrying its reply channel.
type feedMsg struct {
	samples []Sample
	end     *EndRequest
	idle    bool
	reply   chan endResult
}

type endResult struct {
	resp *EndResponse
	err  error
}

// stream is one active run: its engine, its bounded queue, and the
// single worker goroutine that owns the engine.
type stream struct {
	key StreamKey
	eng *Engine
	ch  chan feedMsg // bounded sample-batch queue
	end chan feedMsg // end-of-stream markers, processed after draining ch
	// exited closes when the worker returns, releasing any sender
	// still waiting to hand over an end marker.
	exited chan struct{}

	mu         sync.Mutex
	nextSeq    int // next expected samples batch seq
	lastActive time.Time
	ferr       error // first feed error; poisons the stream

	directives int
	sources    int

	// steps/trueCount snapshot the engine after each applied batch so
	// acks can report progress without touching the worker's engine.
	steps     atomic.Int64
	trueCount atomic.Int64
}

// Manager is the daemon-wide intake: one long-lived incremental
// diagnosis session per active run, fed through bounded per-stream
// queues, finalized into the history store on the end-of-stream marker
// or the idle timeout. Every finalized run is immediately harvestable,
// so concurrent streams of the same workload benefit from each other
// within one daemon lifetime.
type Manager struct {
	env  *harness.Env
	opts ManagerOptions

	mu      sync.Mutex
	streams map[StreamKey]*stream
	recent  map[StreamKey]*EndResponse // finalized results for idempotent End resends
	order   []StreamKey                // FIFO eviction of recent
	closed  bool

	counters managerCounters
	stop     chan struct{}
	janitor  sync.WaitGroup

	// stages takes the time of each batch's feed and each end's finalize
	// and save (ObserveStages).
	stages atomic.Pointer[metric.Stages]
}

// ObserveStages has the intake record, under op "stream", each batch's
// Engine.Feed (feed) and each end marker's Finalize (finalize) and store
// save (save) in st.
func (m *Manager) ObserveStages(st *metric.Stages) { m.stages.Store(st) }

// NewManager creates the intake over env's store and harvest cache.
func NewManager(env *harness.Env, opts ManagerOptions) *Manager {
	m := &Manager{
		env:     env,
		opts:    opts.normalize(),
		streams: map[StreamKey]*stream{},
		recent:  map[StreamKey]*EndResponse{},
		stop:    make(chan struct{}),
	}
	m.janitor.Add(1)
	go m.runJanitor()
	return m
}

// Close shuts the intake down: new work is refused, active streams are
// discarded without saving (a client that wants its run kept must send
// the end-of-stream marker before the daemon exits).
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	active := make([]*stream, 0, len(m.streams))
	for _, s := range m.streams {
		active = append(active, s)
	}
	m.mu.Unlock()
	close(m.stop)
	m.janitor.Wait()
	for _, s := range active {
		res := m.sendEnd(s, feedMsg{end: &EndRequest{Discard: true}, reply: make(chan endResult, 1)})
		_ = res
	}
}

// Start opens a stream, harvesting directives from the stored history
// of (app, version) when asked.
func (m *Manager) Start(req *StartRequest) (*StartResponse, error) {
	if req.App == "" || req.RunID == "" {
		return nil, fmt.Errorf("ingest: start needs app and run_id")
	}
	// The engine matches a watch by comparison and never looks at its
	// shape; one that names no possible pair would only never conclude.
	space, hyps := resource.NewStandardSpace(), consultant.StandardHypotheses()
	for _, w := range req.Watch {
		parts, err := resource.SplitPath(w.Path)
		if err != nil {
			return nil, fmt.Errorf("ingest: watch %q: %w", w.Hyp, err)
		}
		if _, ok := space.Hierarchy(parts[0]); !ok {
			return nil, fmt.Errorf("ingest: watch path %q is under no resource hierarchy", w.Path)
		}
		if hyps.Find(w.Hyp) == nil {
			return nil, fmt.Errorf("ingest: watch names unknown hypothesis %q", w.Hyp)
		}
	}
	key := StreamKey{App: req.App, Version: req.Version, RunID: req.RunID}
	if _, err := m.env.Store().Load(req.App, req.Version, req.RunID); err == nil {
		return nil, fmt.Errorf("ingest: run %s is already finalized in the store", key)
	}

	opts := EngineOptions{EvalBudget: m.opts.EvalBudget, Watch: req.Watch}
	s := &stream{
		key:        key,
		ch:         make(chan feedMsg, m.opts.QueueDepth),
		end:        make(chan feedMsg),
		exited:     make(chan struct{}),
		nextSeq:    1,
		lastActive: m.opts.Now(),
	}
	if req.Harvest {
		if ds, sources := m.harvestFor(req.App, req.Version); ds != nil {
			opts.Directives, opts.guide = ds, m.env.Cache().Guide(ds)
			s.directives, s.sources = ds.Len(), sources
		}
	}
	s.eng = NewEngine(req.App, req.Version, req.RunID, opts)

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrClosed
	}
	if _, ok := m.streams[key]; ok {
		m.mu.Unlock()
		return nil, ErrStreamExists
	}
	if len(m.streams) >= m.opts.MaxStreams {
		m.mu.Unlock()
		return nil, ErrTooManyStreams
	}
	m.streams[key] = s
	m.mu.Unlock()

	m.counters.started.Add(1)
	if s.directives > 0 {
		m.counters.harvestedStreams.Add(1)
	}
	go m.runStream(s)
	return &StartResponse{Stream: key.String(), Directives: s.directives, SourceRuns: s.sources}, nil
}

// harvestFor folds the stored runs of (app, version) into one directive
// set — the paper's "and" combination (directives supported by every
// source run) — through the environment's one memoized fold, the one
// /harvest runs.
func (m *Manager) harvestFor(app, version string) (*core.DirectiveSet, int) {
	recs, err := m.env.Store().LoadAll(app, version)
	if err != nil || len(recs) == 0 {
		return nil, 0
	}
	if n := m.opts.HarvestSources; len(recs) > n {
		recs = recs[len(recs)-n:]
	}
	return m.env.HarvestCombined(recs, core.HarvestAll(), true), len(recs)
}

// Samples applies one batch to its stream's queue. Resends of an
// already-accepted seq are acknowledged without effect; a gap is
// rejected; a full queue answers ErrStreamBusy. The queue outlives the
// call, so Samples takes ownership of req.Samples: a caller that reuses
// its buffer hands over a copy (LocalSender does).
func (m *Manager) Samples(req *SamplesRequest) (*SamplesResponse, error) {
	s, err := m.lookup(req.App, req.Version, req.RunID)
	if err != nil {
		return nil, err
	}
	if req.Seq <= 0 {
		return nil, fmt.Errorf("ingest: batch seq must be positive (got %d)", req.Seq)
	}
	s.mu.Lock()
	if s.ferr != nil {
		err := s.ferr
		s.mu.Unlock()
		return nil, err
	}
	switch {
	case req.Seq < s.nextSeq:
		s.mu.Unlock()
		m.counters.dupBatches.Add(1)
		return &SamplesResponse{Accepted: 0, Steps: int(s.steps.Load()), TrueCount: int(s.trueCount.Load())}, nil
	case req.Seq > s.nextSeq:
		s.mu.Unlock()
		m.counters.outOfOrder.Add(1)
		return nil, fmt.Errorf("%w: got batch %d, want %d", ErrOutOfOrder, req.Seq, s.nextSeq)
	}
	select {
	case s.ch <- feedMsg{samples: req.Samples}:
		s.nextSeq++
		s.lastActive = m.opts.Now()
	default:
		s.mu.Unlock()
		m.counters.rejectedFull.Add(1)
		return nil, ErrStreamBusy
	}
	queued := len(s.ch)
	s.mu.Unlock()
	m.counters.batches.Add(1)
	m.counters.samples.Add(uint64(len(req.Samples)))
	return &SamplesResponse{
		Accepted:  len(req.Samples),
		Queued:    queued,
		Steps:     int(s.steps.Load()),
		TrueCount: int(s.trueCount.Load()),
	}, nil
}

// End finalizes a stream: the worker drains the queue, settles the full
// aggregate through the batch evaluation path, and saves the record.
// Seq must be one past the last samples batch (proof nothing was lost).
// Resending End for a just-finalized stream returns the same response.
func (m *Manager) End(req *EndRequest) (*EndResponse, error) {
	key := StreamKey{App: req.App, Version: req.Version, RunID: req.RunID}
	s, err := m.lookup(req.App, req.Version, req.RunID)
	if err != nil {
		// A resend after a successful finalize finds the memoized result.
		m.mu.Lock()
		resp, ok := m.recent[key]
		m.mu.Unlock()
		if ok {
			return resp, nil
		}
		return nil, err
	}
	s.mu.Lock()
	if s.ferr != nil {
		ferr := s.ferr
		s.mu.Unlock()
		// Shut the poisoned stream down (the worker discards it) and
		// report the feed error that killed it.
		m.sendEnd(s, feedMsg{end: &EndRequest{Discard: true}, reply: make(chan endResult, 1)})
		return nil, ferr
	}
	if !req.Discard && req.Seq != 0 && req.Seq != s.nextSeq {
		next := s.nextSeq
		s.mu.Unlock()
		m.counters.outOfOrder.Add(1)
		return nil, fmt.Errorf("%w: end marker at seq %d, want %d", ErrOutOfOrder, req.Seq, next)
	}
	s.lastActive = m.opts.Now()
	s.mu.Unlock()
	res := m.sendEnd(s, feedMsg{end: req, reply: make(chan endResult, 1)})
	if res.err == nil && res.resp == nil {
		// The worker exited under us (a racing end marker finalized the
		// stream); serve the memoized result.
		m.mu.Lock()
		resp, ok := m.recent[key]
		m.mu.Unlock()
		if ok {
			return resp, nil
		}
		return nil, ErrNoStream
	}
	return res.resp, res.err
}

// sendEnd hands the end-of-stream marker to the worker and waits for
// the finalize result. A worker that already exited (a racing marker
// finalized the stream first) yields an empty endResult; callers fall
// back to the memoized response.
func (m *Manager) sendEnd(s *stream, msg feedMsg) endResult {
	select {
	case s.end <- msg:
	case <-s.exited:
		return endResult{}
	}
	select {
	case res := <-msg.reply:
		return res
	case <-s.exited:
		// The worker replied (buffered) and exited before we woke up;
		// prefer the actual reply when it is there.
		select {
		case res := <-msg.reply:
			return res
		default:
			return endResult{}
		}
	}
}

// lookup finds an active stream.
func (m *Manager) lookup(app, version, runID string) (*stream, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrClosed
	}
	s, ok := m.streams[StreamKey{App: app, Version: version, RunID: runID}]
	if !ok {
		return nil, ErrNoStream
	}
	return s, nil
}

// remove retires a stream, memoizing its final response (when non-nil)
// for idempotent End resends.
func (m *Manager) remove(s *stream, resp *EndResponse) {
	m.mu.Lock()
	delete(m.streams, s.key)
	if resp != nil {
		if _, ok := m.recent[s.key]; !ok {
			m.order = append(m.order, s.key)
			if len(m.order) > 256 {
				delete(m.recent, m.order[0])
				m.order = m.order[1:]
			}
		}
		m.recent[s.key] = resp
	}
	m.mu.Unlock()
}

// runStream is the per-stream worker: the only goroutine that touches
// the engine, so arrival order (the batch sequence) is the evaluation
// order and every replay of the same stream is identical. End markers
// are taken only after the sample queue is drained.
func (m *Manager) runStream(s *stream) {
	defer close(s.exited)
	for {
		select {
		case msg := <-s.ch:
			m.feedOne(s, msg)
		case msg := <-s.end:
			// The marker follows every batch the client sent; drain
			// what is still queued before settling.
			for {
				select {
				case queued := <-s.ch:
					m.feedOne(s, queued)
					continue
				default:
				}
				break
			}
			res := m.finalize(s, msg.end, msg.idle)
			msg.reply <- res
			if res.err == nil {
				return
			}
		}
	}
}

// feedOne applies one sample batch to the stream's engine.
func (m *Manager) feedOne(s *stream, msg feedMsg) {
	if m.opts.feedHook != nil {
		m.opts.feedHook()
	}
	s.mu.Lock()
	poisoned := s.ferr != nil
	s.mu.Unlock()
	if poisoned {
		return
	}
	t := time.Now()
	err := s.eng.Feed(msg.samples)
	m.stages.Load().Since("stream", "feed", t)
	if err != nil {
		s.mu.Lock()
		s.ferr = err
		s.mu.Unlock()
		return
	}
	s.steps.Store(int64(s.eng.Steps()))
	s.trueCount.Store(int64(s.eng.TrueCount()))
}

// finalize settles one stream. A save failure (degraded store) keeps
// the stream alive so the client can retry the end marker; every other
// outcome retires it.
func (m *Manager) finalize(s *stream, req *EndRequest, idle bool) endResult {
	s.mu.Lock()
	ferr := s.ferr
	s.mu.Unlock()
	if ferr != nil {
		// A poisoned stream has nothing trustworthy to save.
		m.remove(s, nil)
		m.counters.discarded.Add(1)
		return endResult{err: ferr}
	}
	if req.Discard {
		m.remove(s, nil)
		m.counters.discarded.Add(1)
		return endResult{resp: &EndResponse{Samples: s.eng.Samples(), Steps: s.eng.Steps()}}
	}
	t := time.Now()
	rec, bottlenecks, err := s.eng.Finalize(req.Elapsed)
	t = m.stages.Load().Since("stream", "finalize", t)
	if err != nil {
		// Nothing salvageable (e.g. an empty stream); retire it.
		m.remove(s, nil)
		m.counters.discarded.Add(1)
		return endResult{err: err}
	}
	err = m.env.Store().Save(rec)
	m.stages.Load().Since("stream", "save", t)
	if err != nil {
		return endResult{err: err}
	}
	resp := &EndResponse{
		Saved:       rec.Key().String(),
		Bottlenecks: bottlenecks,
		Steps:       s.eng.Steps(),
		WatchSteps:  s.eng.WatchSteps(),
		Samples:     s.eng.Samples(),
		Directives:  s.directives,
	}
	m.remove(s, resp)
	if idle {
		m.counters.idleFinalized.Add(1)
	} else {
		m.counters.finalized.Add(1)
	}
	return endResult{resp: resp}
}

// runJanitor finalizes streams whose client went quiet: the implicit
// end-of-stream marker.
func (m *Manager) runJanitor() {
	defer m.janitor.Done()
	period := m.opts.IdleTimeout / 4
	if period < 10*time.Millisecond {
		period = 10 * time.Millisecond
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-t.C:
		}
		now := m.opts.Now()
		m.mu.Lock()
		var idle []*stream
		for _, s := range m.streams {
			s.mu.Lock()
			if now.Sub(s.lastActive) >= m.opts.IdleTimeout {
				idle = append(idle, s)
				s.lastActive = now // one finalize attempt per timeout window
			}
			s.mu.Unlock()
		}
		m.mu.Unlock()
		for _, s := range idle {
			m.sendEnd(s, feedMsg{end: &EndRequest{}, idle: true, reply: make(chan endResult, 1)})
		}
	}
}

// Snapshot returns the intake's current counters.
func (m *Manager) Snapshot() Stats {
	m.mu.Lock()
	active := len(m.streams)
	m.mu.Unlock()
	return Stats{
		Active:           active,
		Started:          m.counters.started.Load(),
		Finalized:        m.counters.finalized.Load(),
		IdleFinalized:    m.counters.idleFinalized.Load(),
		Discarded:        m.counters.discarded.Load(),
		Samples:          m.counters.samples.Load(),
		Batches:          m.counters.batches.Load(),
		RejectedFull:     m.counters.rejectedFull.Load(),
		DupBatches:       m.counters.dupBatches.Load(),
		OutOfOrder:       m.counters.outOfOrder.Load(),
		HarvestedStreams: m.counters.harvestedStreams.Load(),
	}
}
