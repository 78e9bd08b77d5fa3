package main

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/history"
	"repro/internal/ingest"
	"repro/internal/server"
)

// Call classes, named as the server's /statsz op counters name them.
const (
	clsPutRun = iota
	clsPutRuns
	clsGetRun
	clsQuery
	clsCompare
	clsHarvest
	clsPersistent
	clsDiagnose
	clsIngestStart
	clsIngestSamples
	clsIngestEnd
	numClasses
)

var classNames = [numClasses]string{
	"put_run", "put_runs", "get_run", "query", "compare", "harvest",
	"persistent", "diagnose", "ingest_start", "ingest_samples", "ingest_end",
}

// readClass marks the calls that make read-mixed's headline.
var readClass = [numClasses]bool{
	clsGetRun: true, clsQuery: true, clsCompare: true, clsHarvest: true, clsPersistent: true,
}

// callSample is one client round trip of the measured phase.
type callSample struct {
	class int
	ns    int64
	tag   int // the client's tag when the call was made
}

// opSample is one completed op of the measured phase. Most ops are a
// single call; a diagnose op is a harvest+diagnose pair and a stream op
// is start, batches and end. ns is the time the op spent in its calls,
// waiting on pcd: generating the request and checking the answer are
// the benchmark's work, not the system's. stratum is what Op returned.
type opSample struct {
	stratum int
	ns      int64
	// wall is the whole op as the client lived it: building the requests,
	// the calls, checking the answers. Throughput is made of these.
	wall int64
	// scale takes ns and wall to the reference pace (ref.go); 1 in a run
	// that does not pace.
	scale float64
	tag   int
}

// check is one acknowledged write the correctness gate re-reads from
// disk after the drain. want regenerates the bytes the store must hold
// and may fail on its own (a diagnose response that does not equal the
// in-process session is reported here).
type check struct {
	key  history.RecordKey
	want func() ([]byte, error)
}

// clientState is one closed-loop client: its connection, its samples
// and the writes it had acknowledged. Owned by one goroutine during the
// load, read by the reporter after it.
type clientState struct {
	idx int
	cl  *client.Client
	w   *world

	measuring bool
	// tag marks the samples being taken; the traced run uses it to tell
	// the slices with the decorators recording from those with them idle.
	tag   int
	next  int // index of the next op; run ids derive from it, so it never rewinds
	calls []callSample
	ops   []opSample
	// callNS is the round-trip time of the running op's calls so far.
	callNS int64
	// refMS is every reference kernel run of this client's measured phase,
	// in ms, when the load paces.
	refMS []float64

	attempted int
	failed    int
	firstErr  error
	checks    []check
}

// world is what every client of one run shares.
type world struct {
	seed    int64
	corp    *corpus
	streams map[string][]*sampleStream
	wl      workload
	rec     *recorder // nil with tracing off
	nextOp  atomic.Uint64
}

func (w *world) newOp() uint64 { return w.nextOp.Add(1) }

// newClient builds the client the tools build for -server mode, on a
// connection pool of its own so each closed-loop client holds exactly
// one keep-alive connection.
func newClient(w *world, url string, idx int) *clientState {
	cl := client.NewResilient(url, 2)
	tr := http.DefaultTransport.(*http.Transport).Clone()
	var rt http.RoundTripper = tr
	if w.rec != nil {
		rt = opTransport{base: tr}
	}
	cl.HTTPClient = &http.Client{Transport: rt}
	return &clientState{idx: idx, cl: cl, w: w}
}

func (c *clientState) closeIdle() {
	if hc := c.cl.HTTPClient; hc != nil {
		hc.CloseIdleConnections()
	}
}

// timed runs one client call, recording its round trip and, with
// tracing on, its client span.
func (c *clientState) timed(ctx context.Context, class int, op uint64, f func(ctx context.Context) error) error {
	if op != 0 {
		ctx = withOp(ctx, op)
	}
	end := c.w.rec.begin("client."+classNames[class], op, "")
	t0 := time.Now()
	err := f(ctx)
	ns := int64(time.Since(t0))
	end()
	c.callNS += ns
	if c.measuring && err == nil {
		c.calls = append(c.calls, callSample{class: class, ns: ns, tag: c.tag})
	}
	return err
}

func (c *clientState) putRun(ctx context.Context, op uint64, rec *history.RunRecord) error {
	defer c.w.rec.expect(op, keyToken(rec.Key()))()
	var saved string
	err := c.timed(ctx, clsPutRun, op, func(ctx context.Context) (err error) {
		saved, err = c.cl.PutRun(ctx, rec)
		return err
	})
	if err != nil {
		return err
	}
	if saved != rec.Key().String() {
		return fmt.Errorf("put %s: server saved %q", rec.Key(), saved)
	}
	return nil
}

func (c *clientState) putRuns(ctx context.Context, op uint64, recs []*history.RunRecord) error {
	tokens := make([]string, len(recs))
	for i, r := range recs {
		tokens[i] = keyToken(r.Key())
	}
	defer c.w.rec.expect(op, tokens...)()
	var saved []string
	err := c.timed(ctx, clsPutRuns, op, func(ctx context.Context) (err error) {
		saved, err = c.cl.PutRuns(ctx, recs)
		return err
	})
	if err != nil {
		return err
	}
	if len(saved) != len(recs) {
		return fmt.Errorf("putbatch: %d saved of %d", len(saved), len(recs))
	}
	for i, r := range recs {
		if saved[i] != r.Key().String() {
			return fmt.Errorf("putbatch record %d: server saved %q, want %q", i, saved[i], r.Key())
		}
	}
	return nil
}

func (c *clientState) getRun(ctx context.Context, op uint64, key history.RecordKey) (*history.RunRecord, error) {
	defer c.w.rec.expect(op, keyToken(key))()
	var rec *history.RunRecord
	err := c.timed(ctx, clsGetRun, op, func(ctx context.Context) (err error) {
		rec, err = c.cl.GetRun(ctx, key.App, key.Ref())
		return err
	})
	return rec, err
}

func (c *clientState) query(ctx context.Context, op uint64, p client.QueryParams) (*server.QueryResponse, error) {
	defer c.w.rec.expect(op, scopeToken(p.App, p.Version))()
	var resp *server.QueryResponse
	err := c.timed(ctx, clsQuery, op, func(ctx context.Context) (err error) {
		resp, err = c.cl.Query(ctx, p)
		return err
	})
	return resp, err
}

func (c *clientState) persistent(ctx context.Context, op uint64, app, version string, minRuns int) (*server.PersistentResponse, error) {
	defer c.w.rec.expect(op, scopeToken(app, version))()
	var resp *server.PersistentResponse
	err := c.timed(ctx, clsPersistent, op, func(ctx context.Context) (err error) {
		resp, err = c.cl.Persistent(ctx, app, version, minRuns)
		return err
	})
	return resp, err
}

func (c *clientState) compare(ctx context.Context, op uint64, a, b history.RecordKey, eps float64) (*server.CompareResponse, error) {
	defer c.w.rec.expect(op, keyToken(a), keyToken(b))()
	var resp *server.CompareResponse
	err := c.timed(ctx, clsCompare, op, func(ctx context.Context) (err error) {
		resp, err = c.cl.Compare(ctx, a.App, a.Ref(), b.Ref(), eps)
		return err
	})
	return resp, err
}

func (c *clientState) harvest(ctx context.Context, op uint64, req *server.HarvestRequest) (*server.HarvestResponse, error) {
	var tokens []string
	for _, ref := range append(append([]string(nil), req.Runs...), req.MapTo) {
		if ref == "" {
			continue
		}
		if k, err := history.ParseRunKey(req.App, ref); err == nil {
			tokens = append(tokens, keyToken(k))
		}
	}
	defer c.w.rec.expect(op, tokens...)()
	var resp *server.HarvestResponse
	err := c.timed(ctx, clsHarvest, op, func(ctx context.Context) (err error) {
		resp, err = c.cl.Harvest(ctx, req)
		return err
	})
	return resp, err
}

func (c *clientState) diagnose(ctx context.Context, op uint64, req *server.DiagnoseRequest) (*server.DiagnoseResponse, error) {
	defer c.w.rec.expect(op, keyToken(history.RecordKey{App: req.App, Version: req.Version, RunID: req.RunID}))()
	var resp *server.DiagnoseResponse
	err := c.timed(ctx, clsDiagnose, op, func(ctx context.Context) (err error) {
		resp, err = c.cl.Diagnose(ctx, req)
		return err
	})
	return resp, err
}

func (c *clientState) ingestStart(ctx context.Context, op uint64, req *ingest.StartRequest) (*ingest.StartResponse, error) {
	defer c.w.rec.expect(op, scopeToken(req.App, req.Version))()
	var resp *ingest.StartResponse
	err := c.timed(ctx, clsIngestStart, op, func(ctx context.Context) (err error) {
		resp, err = c.cl.IngestStart(ctx, req)
		return err
	})
	return resp, err
}

func (c *clientState) ingestSamples(ctx context.Context, op uint64, req *ingest.SamplesRequest) error {
	return c.timed(ctx, clsIngestSamples, op, func(ctx context.Context) error {
		_, err := c.cl.IngestSamples(ctx, req)
		return err
	})
}

func (c *clientState) ingestEnd(ctx context.Context, op uint64, req *ingest.EndRequest) (*ingest.EndResponse, error) {
	defer c.w.rec.expect(op, keyToken(history.RecordKey{App: req.App, Version: req.Version, RunID: req.RunID}))()
	var resp *ingest.EndResponse
	err := c.timed(ctx, clsIngestEnd, op, func(ctx context.Context) (err error) {
		resp, err = c.cl.IngestEnd(ctx, req)
		return err
	})
	return resp, err
}

// acked remembers a write the server acknowledged, for the gate.
func (c *clientState) acked(key history.RecordKey, want func() ([]byte, error)) {
	c.checks = append(c.checks, check{key: key, want: want})
}

// ackedDerived remembers an acknowledged put of a derived corpus record.
func (c *clientState) ackedDerived(rec *history.RunRecord, slot int, jkey uint64) {
	corp, k := c.w.corp, rec.Key()
	c.acked(k, func() ([]byte, error) {
		return canonicalBytes(corp.derive(slot, k.App, k.Version, k.RunID, jkey))
	})
}

// runOp executes op idx of this client, timing it as one op.
func (c *clientState) runOp(ctx context.Context, idx int) {
	c.attempted++
	op := uint64(0)
	if c.w.rec != nil && c.w.rec.enabled.Load() {
		op = c.w.newOp()
	}
	end := c.w.rec.begin("op."+c.w.wl.Name(), op, "")
	c.callNS = 0
	t0 := time.Now()
	stratum, err := c.w.wl.Op(ctx, c, op, idx)
	wall := time.Since(t0)
	end()
	if err != nil {
		c.failed++
		if c.firstErr == nil {
			c.firstErr = fmt.Errorf("client %d op %d: %w", c.idx, idx, err)
		}
		return
	}
	if c.measuring {
		c.ops = append(c.ops, opSample{stratum: stratum, ns: c.callNS, wall: int64(wall), scale: 1, tag: c.tag})
	}
}

// loadResult is what one closed-loop load leaves behind.
type loadResult struct {
	cpuChild float64               // CPU seconds of the pcd children over the measured phase
	cpuSelf  float64               // CPU seconds of this process over the measured phase
	rss      float64               // VmHWM of the pcd children at the barrier, MB
	before   *server.StatsResponse // /statsz at the start of the measured phase
	after    *server.StatsResponse // and at its end
	lagMax   uint64                // sampler: largest follower lag seen (frames)
	inFlight int64                 // sampler: largest in-flight gauge seen
}

// runLoad drives the closed loop: every client runs warmOps ops back to
// back (discarded), all meet at a barrier where the CPU clocks, memory
// and /statsz are read, then run for measure. A client starts no op
// after the deadline but finishes the one in flight, and that op counts.
// An end-to-end run's clients run the reference kernel between ops, at
// least every refEvery, and scale their samples by it; a traced run's
// do not (its numbers are shares of one request, taken within
// milliseconds of each other), and it alone polls /statsz every 100 ms:
// the end-to-end runs send pcd nothing but the workload.
func runLoad(ctx context.Context, w *world, topo *topology, clients []*clientState, warmOps int, measure time.Duration, traced bool) (*loadResult, error) {
	res := &loadResult{}
	children := topo.primary.cmd != nil
	cpuOf := func() float64 {
		if !children {
			return 0
		}
		c, _ := topo.childCPU()
		return c
	}
	each := func(f func(c *clientState)) {
		var wg sync.WaitGroup
		for _, c := range clients {
			wg.Add(1)
			go func(c *clientState) {
				defer wg.Done()
				f(c)
			}(c)
		}
		wg.Wait()
	}
	each(func(c *clientState) {
		c.measuring = false
		for i := 0; i < warmOps && ctx.Err() == nil; i++ {
			c.runOp(ctx, c.next)
			c.next++
		}
	})

	var err error
	if res.before, err = client.New(topo.primary.url).Stats(ctx); err != nil {
		return nil, err
	}
	if children {
		if res.rss, err = topo.childPeakRSS(); err != nil {
			return nil, err
		}
	}
	stopSampler := func() {}
	if traced {
		stopSampler = startSampler(ctx, topo, res)
	}
	cpu0, self0, t0 := cpuOf(), selfCPU(), time.Now()
	deadline := t0.Add(measure)
	each(func(c *clientState) {
		c.measuring = true
		if traced {
			for time.Now().Before(deadline) && ctx.Err() == nil {
				c.runOp(ctx, c.next)
				c.next++
			}
			return
		}
		// The ops of one lap share its scale: the kernel ran just before
		// the first of them and just after the last.
		p, first := startPacer(), len(c.ops)
		closeLap := func() {
			scale := p.lap()
			for i := first; i < len(c.ops); i++ {
				c.ops[i].scale = scale
			}
			first = len(c.ops)
		}
		for time.Now().Before(deadline) && ctx.Err() == nil {
			c.runOp(ctx, c.next)
			c.next++
			if p.since() >= refEvery {
				closeLap()
			}
		}
		closeLap()
		c.refMS = p.ks
	})
	res.cpuChild, res.cpuSelf = cpuOf()-cpu0, selfCPU()-self0
	stopSampler()
	if res.after, err = client.New(topo.primary.url).Stats(ctx); err != nil {
		return nil, err
	}
	return res, nil
}

// startSampler polls the primary's /statsz every 100 ms for the gauges
// that only exist as instantaneous values.
func startSampler(ctx context.Context, topo *topology, res *loadResult) func() {
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ctx.Done():
				return
			case <-tick.C:
				lag, _, st, err := topo.replLag(ctx)
				if err != nil {
					continue
				}
				if lag > res.lagMax {
					res.lagMax = lag
				}
				// The /statsz request counts itself.
				if st.InFlight-1 > res.inFlight {
					res.inFlight = st.InFlight - 1
				}
			}
		}
	}()
	return func() { close(stop); <-done }
}
