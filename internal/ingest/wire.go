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
	"encoding/json"
	"strconv"

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

// MarshalSamplesRequest is json.Marshal(req), written by the direct
// codec of the serialized interval (postmortem.AppendSample) under this
// envelope; a batch holding a float JSON cannot spell is encoding/json's
// to refuse.
func MarshalSamplesRequest(req *SamplesRequest) ([]byte, error) {
	if req == nil {
		return []byte("null"), nil
	}
	// 140-170 bytes a sample of this tree's applications: a low guess
	// costs one buffer growth, a high one a little slack.
	dst := make([]byte, 0, 128+len(req.App)+len(req.Version)+len(req.RunID)+192*len(req.Samples))
	dst = history.AppendString(append(dst, `{"app":`...), req.App)
	if req.Version != "" {
		dst = history.AppendString(append(dst, `,"version":`...), req.Version)
	}
	dst = history.AppendString(append(dst, `,"run_id":`...), req.RunID)
	dst = strconv.AppendInt(append(dst, `,"seq":`...), int64(req.Seq), 10)
	dst = append(dst, `,"samples":`...)
	if req.Samples == nil {
		return append(dst, "null}"...), nil
	}
	dst = append(dst, '[')
	for i := range req.Samples {
		if i > 0 {
			dst = append(dst, ',')
		}
		var ok bool
		if dst, ok = postmortem.AppendSample(dst, &req.Samples[i]); !ok {
			return json.Marshal(req)
		}
	}
	return append(dst, ']', '}'), nil
}

var samplesRequestFields = []string{"app", "version", "run_id", "seq", "samples"}

// ParseSamplesRequest decodes one request through the strict decoder
// into *req. false means the decoder bailed, left *req alone and said
// nothing about data: run encoding/json over it.
func ParseSamplesRequest(data []byte, req *SamplesRequest) bool {
	d := history.NewDecoder(data)
	var sd postmortem.SampleDecoder
	var v SamplesRequest
	d.Object(samplesRequestFields, func(i int) {
		switch i {
		case 0:
			v.App = d.String()
		case 1:
			v.Version = d.String()
		case 2:
			v.RunID = d.String()
		case 3:
			v.Seq = d.Int()
		case 4:
			// Sized from the body, so a real batch is appended to without
			// growing.
			v.Samples = make([]Sample, 0, len(data)/128)
			d.Array(func() {
				v.Samples = append(v.Samples, Sample{})
				sd.Sample(d, &v.Samples[len(v.Samples)-1])
			})
		}
	})
	if !d.End() {
		return false
	}
	*req = v
	return true
}

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
