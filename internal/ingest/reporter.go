package ingest

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/sim"
)

// Sender ships ingest requests to a daemon and owns their retries.
// *client.Client satisfies it over the wire (its resilience ladder
// retries backpressured and failed requests, honoring Retry-After);
// LocalSender satisfies it in-process.
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
// keeps what it is given, and a Reporter refills its buffer. A full
// stream queue is waited out, polling until the worker makes room or
// ctx is done.
func (l LocalSender) IngestSamples(ctx context.Context, req *SamplesRequest) (*SamplesResponse, error) {
	own := *req
	own.Samples = slices.Clone(req.Samples)
	for {
		resp, err := l.M.Samples(&own)
		if !errors.Is(err, ErrStreamBusy) {
			return resp, err
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

func (l LocalSender) IngestEnd(_ context.Context, req *EndRequest) (*EndResponse, error) {
	return l.M.End(req)
}

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
// Batches how many batches.
func (r *Reporter) Samples() int { return r.samples }
func (r *Reporter) Batches() int { return r.batches }

// flush ships the buffered samples as the next batch. Retries belong to
// the Sender; the seq makes its resends idempotent, so a batch whose
// ack was lost is not applied twice.
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
	if _, err := r.snd.IngestSamples(r.ctx, req); err != nil {
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
// run's wall length in virtual seconds (0 means last sample end). A
// stream that failed, tail flush included, is discarded on the daemon
// rather than left for its idle timeout to save without the lost batch.
func (r *Reporter) Finish(elapsed float64) (*EndResponse, error) {
	if r.err == nil {
		r.err = r.flush()
	}
	if r.err != nil {
		_ = r.Discard()
		return nil, r.err
	}
	return r.snd.IngestEnd(r.ctx, &EndRequest{
		App: r.app, Version: r.version, RunID: r.runID,
		Seq: r.seq, Elapsed: elapsed,
	})
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
