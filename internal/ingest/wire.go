// Package ingest is the streaming intake subsystem: it turns pcd from a
// batch service (diagnose complete runs sitting in the store) into the
// online tool the paper describes — live metric samples arrive over the
// wire from running (simulated) applications, an incremental diagnosis
// session per active run feeds them into the consultant's refinement
// frontier as they land, historically harvested directives prune and
// prioritize the search from the first sample, and the finished run is
// finalized into the history store where the next stream immediately
// harvests it.
//
// The package has three parts: the wire schema (this file), the
// incremental diagnosis engine (engine.go) plus the per-daemon session
// manager that owns one engine per active stream (manager.go), and the
// client-side Reporter (reporter.go) that watches a simulation and
// ships its intervals in batches.
package ingest

import (
	"repro/internal/history"
	"repro/internal/postmortem"
	"repro/internal/sim"
)

// Sample is one attributed activity interval on the wire: the
// postmortem trace-file line itself (FORMATS.md "Trace files"), with its
// one validator (Sample.Interval), so anything that can emit a trace
// line can report live samples.
type Sample = postmortem.Sample

// FromInterval converts a simulator interval to its wire form.
func FromInterval(iv sim.Interval) Sample { return postmortem.FromInterval(iv) }

// Watch names one (hypothesis : selection-path) pair of a workload's
// known bottleneck signature: it is met by a true pair of that
// hypothesis one of whose focus selections is exactly that path. The
// engine reports the number of refinement steps it took until every
// watched pair had concluded true — the paper's time-to-diagnosis metric
// in step form.
type Watch struct {
	Hyp  string `json:"hyp"`
	Path string `json:"path"`
}

// StartRequest opens one sample stream for a run. The (app, version,
// run_id) triple is the stream's identity; starting an already-active
// triple is an error, and a triple already finalized in the store is
// rejected before any sample is accepted.
type StartRequest struct {
	App     string `json:"app"`
	Version string `json:"version,omitempty"`
	RunID   string `json:"run_id"`
	// Harvest asks the daemon to harvest prune/priority/threshold
	// directives from the runs of (app, version) already in the store
	// and steer this stream's incremental search with them.
	Harvest bool `json:"harvest,omitempty"`
	// Watch optionally registers the known bottleneck signature the
	// caller expects, for the steps-to-signature report.
	Watch []Watch `json:"watch,omitempty"`
}

// StartResponse acknowledges an opened stream.
type StartResponse struct {
	Stream string `json:"stream"` // canonical APP/VERSION:RUNID key
	// Directives is how many harvested directives steer this stream
	// (0 when harvesting was off or no history existed yet);
	// SourceRuns is how many stored runs they were harvested from.
	Directives int `json:"directives"`
	SourceRuns int `json:"source_runs"`
}

// SamplesRequest ships one batch of samples. Seq numbers batches
// 1,2,3,... per stream: a batch is applied exactly once, a resend of
// an already-applied Seq is acknowledged idempotently, and a gap is an
// error (the transport below a single reporter is ordered).
type SamplesRequest struct {
	App     string   `json:"app"`
	Version string   `json:"version,omitempty"`
	RunID   string   `json:"run_id"`
	Seq     int      `json:"seq"`
	Samples []Sample `json:"samples"`
}

// SamplesRequestShape is the member table of a sample batch, the
// request body a Reporter sends and the server's intake reads.
var SamplesRequestShape = history.NewShape(
	history.Field("app", func(r *SamplesRequest) *string { return &r.App }, history.String),
	history.OmitEmpty("version", func(r *SamplesRequest) *string { return &r.Version }, history.String),
	history.Field("run_id", func(r *SamplesRequest) *string { return &r.RunID }, history.String),
	history.Field("seq", func(r *SamplesRequest) *int { return &r.Seq }, history.Int),
	// 140-170 bytes a sample of this tree's applications: decoding
	// reserves one for every 128 bytes of the body.
	history.Field("samples", func(r *SamplesRequest) *[]Sample { return &r.Samples }, history.PresizedArrayOf(postmortem.SampleShape.Value(), 128)),
).SizedBy(func(r *SamplesRequest) int {
	return 128 + len(r.App) + len(r.Version) + len(r.RunID) + 192*len(r.Samples)
})

// SamplesResponse acknowledges a batch and reports the stream's
// incremental progress as of the last applied batch.
type SamplesResponse struct {
	Accepted int `json:"accepted"` // samples accepted this call (0 on a duplicate)
	Queued   int `json:"queued"`   // batches waiting in the stream's queue
	// Progress of the incremental search so far (asynchronous: the
	// just-accepted batch may not be folded in yet).
	Steps     int `json:"steps"`
	TrueCount int `json:"true_count"`
}

// SamplesResponseShape is the member table of a batch's acknowledgement,
// which pcd writes once per batch.
var SamplesResponseShape = history.NewShape(
	history.Field("accepted", func(r *SamplesResponse) *int { return &r.Accepted }, history.Int),
	history.Field("queued", func(r *SamplesResponse) *int { return &r.Queued }, history.Int),
	history.Field("steps", func(r *SamplesResponse) *int { return &r.Steps }, history.Int),
	history.Field("true_count", func(r *SamplesResponse) *int { return &r.TrueCount }, history.Int),
)

// EndRequest is the end-of-stream marker: no more samples will arrive,
// finalize the run. Seq must be one past the last samples batch, which
// proves no batch was lost in transit.
type EndRequest struct {
	App     string  `json:"app"`
	Version string  `json:"version,omitempty"`
	RunID   string  `json:"run_id"`
	Seq     int     `json:"seq"`
	Elapsed float64 `json:"elapsed,omitempty"` // run wall length in virtual seconds; 0 means last sample end
	// Discard drops the stream without writing the history store (a
	// client abandoning a run).
	Discard bool `json:"discard,omitempty"`
}

// EndResponse reports the finalized diagnosis of the stream.
type EndResponse struct {
	Saved string `json:"saved,omitempty"` // store key, empty when discarded
	// Bottlenecks is the final true set in canonical order — identical
	// to what a batch diagnosis of the same samples would conclude.
	Bottlenecks []string `json:"bottlenecks"`
	// Steps counts every mid-stream pair evaluation the incremental
	// search performed; WatchSteps is the step count at which the
	// watched signature had fully concluded true (0 when no watch was
	// registered or it never concluded).
	Steps      int `json:"steps"`
	WatchSteps int `json:"watch_steps,omitempty"`
	Samples    int `json:"samples"`
	Directives int `json:"directives"`
}

// StreamKey is the identity of one active stream.
type StreamKey struct {
	App     string
	Version string
	RunID   string
}

func (k StreamKey) String() string {
	return history.RecordKey{App: k.App, Version: k.Version, RunID: k.RunID}.String()
}
