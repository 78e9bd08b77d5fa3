package ingest

import (
	"context"
	"fmt"
	"slices"
	"time"

	"repro/internal/sim"
)

// Sender ships ingest requests to a daemon. *client.Client satisfies it
// over the wire (where the resilience ladder retries backpressured
// batches honoring Retry-After); tests satisfy it in-process.
type Sender interface {
	IngestStart(ctx context.Context, req *StartRequest) (*StartResponse, error)
	IngestSamples(ctx context.Context, req *SamplesRequest) (*SamplesResponse, error)
	IngestEnd(ctx context.Context, req *EndRequest) (*EndResponse, error)
}

// LocalSender adapts an in-process Manager to the Sender interface, for
// self-hosted tools and tests that skip the wire.
type LocalSender struct{ M *Manager }

func (l LocalSender) IngestStart(_ context.Context, req *StartRequest) (*StartResponse, error) {
	return l.M.Start(req)
}

// IngestSamples hands the manager a copy of the batch: the manager
// keeps what it is given, and a Reporter refills its buffer.
func (l LocalSender) IngestSamples(_ context.Context, req *SamplesRequest) (*SamplesResponse, error) {
	own := *req
	own.Samples = slices.Clone(req.Samples)
	return l.M.Samples(&own)
}

func (l LocalSender) IngestEnd(_ context.Context, req *EndRequest) (*EndResponse, error) {
	return l.M.End(req)
}

const (
	// reporterRetries is how many times one batch is re-sent after an
	// error before the reporter gives up; resends of an accepted seq are
	// acknowledged idempotently, so retrying on a lost response is safe.
	reporterRetries = 8
	// reporterRetryWait is the flat wait between resends of one batch —
	// the reporter-level answer to backpressure on top of whatever the
	// sender's own retry ladder already absorbed.
	reporterRetryWait = 20 * time.Millisecond
)

// ReporterOptions configure one run's reporter.
type ReporterOptions struct {
	// BatchSize is how many samples accumulate before a batch ships
	// (<= 0 means 64).
	BatchSize int
	// Harvest asks the daemon to steer this run's incremental search
	// with directives harvested from stored history.
	Harvest bool
	// Watch registers the known bottleneck signature for the
	// steps-to-signature report.
	Watch []Watch
	// Sleep is a test seam for the resend wait; nil means a real timer.
	Sleep func(ctx context.Context, d time.Duration) error
}

func (o ReporterOptions) normalize() ReporterOptions {
	if o.BatchSize <= 0 {
		o.BatchSize = 64
	}
	return o
}

// Reporter watches one simulated run and ships its activity intervals
// to a daemon as seq-numbered sample batches. It is a sim.Observer:
// attach it with AddObserver, run the simulation, then Finish to send
// the end-of-stream marker and collect the final diagnosis.
//
// OnInterval cannot surface transport errors; the first failure latches
// (Err reports it), further samples are dropped, and Finish returns it.
// A Reporter belongs to one goroutine, like the simulation it observes.
type Reporter struct {
	snd     Sender
	ctx     context.Context
	app     string
	version string
	runID   string
	opts    ReporterOptions

	buf     []Sample
	seq     int // next batch seq (1-based)
	started bool
	err     error

	samples int
	batches int
	resends int
}

// NewReporter creates a reporter for one (app, version, run) stream.
// ctx bounds every request the reporter sends.
func NewReporter(ctx context.Context, snd Sender, app, version, runID string, opts ReporterOptions) *Reporter {
	return &Reporter{
		snd: snd, ctx: ctx,
		app: app, version: version, runID: runID,
		opts: opts.normalize(),
		seq:  1,
	}
}

// Start opens the stream on the daemon. It must be called before the
// simulation runs.
func (r *Reporter) Start() (*StartResponse, error) {
	if r.started {
		return nil, fmt.Errorf("ingest: reporter already started")
	}
	resp, err := r.snd.IngestStart(r.ctx, &StartRequest{
		App: r.app, Version: r.version, RunID: r.runID,
		Harvest: r.opts.Harvest, Watch: r.opts.Watch,
	})
	if err != nil {
		return nil, err
	}
	r.started = true
	return resp, nil
}

// OnInterval buffers one completed interval, shipping a batch whenever
// BatchSize samples have accumulated (sim.Observer).
func (r *Reporter) OnInterval(iv sim.Interval) {
	if r.err != nil {
		return
	}
	r.buf = append(r.buf, FromInterval(iv))
	if len(r.buf) >= r.opts.BatchSize {
		r.err = r.flush()
	}
}

// Err returns the first transport error, if any.
func (r *Reporter) Err() error { return r.err }

// Samples returns how many samples were accepted by the daemon so far;
// Batches how many batches; Resends how many re-send attempts the
// reporter made on top of the sender's own retries.
func (r *Reporter) Samples() int { return r.samples }
func (r *Reporter) Batches() int { return r.batches }
func (r *Reporter) Resends() int { return r.resends }

// flush ships the buffered samples as the next batch, re-sending on
// error up to the retry budget. The seq makes resends idempotent, so a
// batch whose ack was lost is not applied twice.
func (r *Reporter) flush() error {
	if len(r.buf) == 0 {
		return nil
	}
	if !r.started {
		return fmt.Errorf("ingest: reporter not started")
	}
	req := &SamplesRequest{
		App: r.app, Version: r.version, RunID: r.runID,
		Seq: r.seq, Samples: r.buf,
	}
	err := r.retrying(func() error {
		_, err := r.snd.IngestSamples(r.ctx, req)
		return err
	})
	if err != nil {
		return err
	}
	r.seq++
	r.samples += len(r.buf)
	r.batches++
	r.buf = r.buf[:0]
	return nil
}

// Finish flushes the tail and sends the end-of-stream marker at one
// past the last batch seq, proving no batch was lost. elapsed is the
// run's wall length in virtual seconds (0 means last sample end).
func (r *Reporter) Finish(elapsed float64) (*EndResponse, error) {
	if r.err != nil {
		// The stream is broken mid-sequence; tell the daemon to drop it.
		_, _ = r.snd.IngestEnd(r.ctx, &EndRequest{
			App: r.app, Version: r.version, RunID: r.runID, Discard: true,
		})
		return nil, r.err
	}
	if err := r.flush(); err != nil {
		return nil, err
	}
	var resp *EndResponse
	err := r.retrying(func() error {
		var err error
		resp, err = r.snd.IngestEnd(r.ctx, &EndRequest{
			App: r.app, Version: r.version, RunID: r.runID,
			Seq: r.seq, Elapsed: elapsed,
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	return resp, nil
}

// Discard abandons the stream without saving it.
func (r *Reporter) Discard() error {
	if !r.started {
		return nil
	}
	_, err := r.snd.IngestEnd(r.ctx, &EndRequest{
		App: r.app, Version: r.version, RunID: r.runID, Discard: true,
	})
	return err
}

// retrying runs one send attempt plus up to reporterRetries resends,
// waiting reporterRetryWait between attempts.
func (r *Reporter) retrying(send func() error) error {
	var last error
	for attempt := 0; attempt <= reporterRetries; attempt++ {
		if attempt > 0 {
			r.resends++
			if err := r.sleep(reporterRetryWait); err != nil {
				return err
			}
		}
		if last = send(); last == nil {
			return nil
		}
		if r.ctx.Err() != nil {
			return last
		}
	}
	return fmt.Errorf("ingest: giving up after %d attempts: %w", reporterRetries+1, last)
}

func (r *Reporter) sleep(d time.Duration) error {
	if r.opts.Sleep != nil {
		return r.opts.Sleep(r.ctx, d)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-r.ctx.Done():
		return r.ctx.Err()
	}
}
