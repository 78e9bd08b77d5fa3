package server

import (
	"encoding/json"
	"io"

	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/ingest"
	"repro/internal/postmortem"
	"repro/internal/replica"
)

// The wire types of the pcd diagnosis service (see FORMATS.md "Wire
// API"). They are shared with internal/client, and the CLIs' -json
// output mode renders the same shapes through MarshalCanonical, so a
// tool run against -store DIR and one run against -server URL emit
// byte-identical JSON.

// MarshalCanonical renders v in the service's canonical JSON encoding
// (FORMATS.md "Wire API"): two-space indent and a trailing newline.
// Every response body and every CLI -json document goes through this one
// encoder. The eleven shapes with a member table (shapeOf) are written by
// it, byte for byte what encoding/json writes for them; everything else,
// and any of them holding a float JSON cannot spell (which encoding/json
// refuses with the error returned here), takes the reflective path.
func MarshalCanonical(v any) ([]byte, error) {
	if s := shapeOf(v); s != nil {
		if data, ok := s.marshal(v, 0); ok {
			return append(data, '\n'), nil
		}
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// MarshalCompact is json.Marshal for a request body, written by the
// member table of v's shape when it has one.
func MarshalCompact(v any) ([]byte, error) {
	if s := shapeOf(v); s != nil {
		if data, ok := s.marshal(v, -1); ok {
			return data, nil
		}
	}
	return json.Marshal(v)
}

// UnmarshalCanonical is json.Unmarshal for a wire body, into a zero
// *out: the shapes the codec knows are read by its strict decoder, and
// whatever that bails on — like every other shape — by encoding/json.
func UnmarshalCanonical(data []byte, out any) error {
	if unmarshalStrict(data, out) {
		return nil
	}
	return json.Unmarshal(data, out)
}

// unmarshalStrict decodes data into *out when out points to one of the
// codec's shapes and the strict decoder reads all of data; otherwise
// *out is untouched and the caller runs encoding/json.
func unmarshalStrict(data []byte, out any) bool {
	s := shapeOf(out)
	return s != nil && s.parse(data, out)
}

// wireShape is a member table with its Go type set aside: what
// MarshalCanonical, MarshalCompact and unmarshalStrict dispatch to.
type wireShape interface {
	marshal(v any, depth int) ([]byte, bool)
	parse(data []byte, out any) bool
}

type wire[T any] struct{ *history.Shape[T] }

// shapeOf is the member table of v's type — one of the eleven shapes, as
// a value or a pointer — or nil.
func shapeOf(v any) wireShape {
	switch v.(type) {
	case history.NodeResult, *history.NodeResult:
		return wire[history.NodeResult]{history.ResultShape}
	case history.RunRecord, *history.RunRecord:
		return wire[history.RunRecord]{history.RecordShape}
	case QueryHit, *QueryHit:
		return wire[QueryHit]{queryHitShape}
	case QueryResponse, *QueryResponse:
		return wire[QueryResponse]{queryResponseShape}
	case PutRunsRequest, *PutRunsRequest:
		return wire[PutRunsRequest]{putRunsShape}
	case HarvestResponse, *HarvestResponse:
		return wire[HarvestResponse]{harvestShape}
	case DiagnoseRequest, *DiagnoseRequest:
		return wire[DiagnoseRequest]{diagnoseShape}
	case DiagnoseBottleneck, *DiagnoseBottleneck:
		return wire[DiagnoseBottleneck]{diagnoseBottleneckShape}
	case DiagnoseResponse, *DiagnoseResponse:
		return wire[DiagnoseResponse]{diagnoseResponseShape}
	case ingest.Sample, *ingest.Sample:
		return wire[ingest.Sample]{postmortem.SampleShape}
	case ingest.SamplesRequest, *ingest.SamplesRequest:
		return wire[ingest.SamplesRequest]{ingest.SamplesRequestShape}
	}
	return nil
}

// marshal writes v, a T or a non-nil *T (a nil one is encoding/json's
// null).
func (w wire[T]) marshal(v any, depth int) ([]byte, bool) {
	p, ok := v.(*T)
	if !ok {
		t := v.(T)
		p = &t
	}
	if p == nil {
		return nil, false
	}
	return w.Marshal(p, depth)
}

func (w wire[T]) parse(data []byte, out any) bool {
	p, ok := out.(*T)
	return ok && w.Parse(data, p)
}

// maxTrustedLength is the largest declared body length a buffer is
// sized to up front; beyond it the body is read as it arrives, so a
// header alone cannot make the reader allocate. It is also the cap on a
// request body (counted), the journal's frame limit.
const maxTrustedLength = 64 << 20

// ReadBody reads a request or response body whose declared length is n
// (negative when unknown): a known length is read into one buffer of
// exactly that size, and a body that ends before it is an error
// (io.ErrUnexpectedEOF; io.EOF when nothing arrived); an unknown one is
// read to its end by doubling.
func ReadBody(body io.Reader, n int64) ([]byte, error) {
	if n < 0 || n > maxTrustedLength {
		return io.ReadAll(body)
	}
	data := make([]byte, n)
	if _, err := io.ReadFull(body, data); err != nil {
		return nil, err
	}
	return data, nil
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}

// HealthResponse is GET /healthz: "ok" while serving, "degraded" while
// the store backend is failing (reads only), "draining" once shutdown
// has begun.
type HealthResponse struct {
	Status string `json:"status"`
}

// StatsResponse is GET /statsz — the service's live counters.
type StatsResponse struct {
	// LiveSessions is the number of diagnosis sessions holding a slot of
	// the server-wide pool right now; SessionCapacity is the pool size.
	LiveSessions    int    `json:"live_sessions"`
	SessionCapacity int    `json:"session_capacity"`
	TotalSessions   uint64 `json:"total_sessions"`
	// ActiveDiagnoses counts in-flight diagnoses: /api/v1/diagnose
	// requests and the orphan a restart is resuming.
	ActiveDiagnoses int `json:"active_diagnoses"`
	// CacheHits/CacheMisses are the harvest cache's counters.
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
	// StoreRecords is the store index size; StoreIssues counts entries
	// the last scan skipped as unreadable.
	StoreRecords int  `json:"store_records"`
	StoreIssues  int  `json:"store_issues"`
	Draining     bool `json:"draining"`
	// Degraded reports whether the backend breaker is open: reads come
	// from the index, writes are refused with 503 until a probe heals.
	Degraded bool `json:"degraded"`
	// BackendFaults counts store operations (and health probes) that
	// failed with backend trouble; WritesRejected counts writes refused
	// while degraded; BreakerOpens counts ok→degraded transitions;
	// BackendProbes counts /healthz recovery probes.
	BackendFaults  uint64 `json:"backend_faults"`
	WritesRejected uint64 `json:"writes_rejected"`
	BreakerOpens   uint64 `json:"breaker_opens"`
	BackendProbes  uint64 `json:"backend_probes"`
	// SessionRetries counts diagnosis sessions re-run after transient
	// failures.
	SessionRetries uint64 `json:"session_retries"`
	// WALAppends/WALSyncs are the store's write-ahead-journal counters
	// (zero when the store is not durable).
	WALAppends uint64 `json:"wal_appends"`
	WALSyncs   uint64 `json:"wal_syncs"`
	// JournalHits counts diagnose requests answered from the session
	// journal (same idempotency key, stored bytes replayed);
	// SessionsResumed counts orphans a restart's resume resolved done.
	JournalHits     uint64 `json:"journal_hits"`
	SessionsResumed uint64 `json:"sessions_resumed"`
	// InFlight is the number of HTTP requests being served right now.
	// The /statsz request reporting it is itself in flight, so an
	// otherwise idle server reports 1.
	InFlight int64 `json:"in_flight"`
	// OpCounts are cumulative request counts per endpoint, keyed by op
	// name (get_run, put_run, query, compare, harvest, diagnose, ...).
	OpCounts map[string]uint64 `json:"op_counts"`
	// Shards carries per-shard gauges (record count, degraded flag, last
	// recovery outcome) when the store is sharded; absent otherwise.
	Shards []history.ShardInfo `json:"shards,omitempty"`
	// Ingest is the streaming intake's counter block: active streams,
	// lifecycle counts, accepted volume, backpressure rejections.
	Ingest ingest.Stats `json:"ingest"`
	// Replication carries the node's replication gauges (role, per-shard
	// lag, follower acks) when replication is on; absent otherwise.
	Replication *replica.Stats `json:"replication,omitempty"`
}

// RunsResponse is GET /api/v1/runs: stored run display names
// (app[-version]-runid), sorted.
type RunsResponse struct {
	Runs []string `json:"runs"`
}

// PutRunResponse is PUT /api/v1/run.
type PutRunResponse struct {
	Saved string `json:"saved"`
}

// DeleteRunResponse is DELETE /api/v1/run.
type DeleteRunResponse struct {
	Deleted string `json:"deleted"`
}

// PutRunsRequest is POST /api/v1/runs/batch: save several run records
// in one round trip. The server reads it with history.DecodePutBatch;
// the batch is validated whole before any write and applied as one
// batch, so a sharded store visits each owning shard once.
type PutRunsRequest struct {
	Runs []*history.RunRecord `json:"runs"`
}

var putRunsShape = history.NewShape(
	history.Field("runs", func(q *PutRunsRequest) *[]*history.RunRecord { return &q.Runs }, history.ArrayOf(history.RecordShape.Pointer())),
).SizedBy(func(q *PutRunsRequest) int {
	n := 64
	for _, rec := range q.Runs {
		if rec != nil {
			n += rec.EncodedSizeHint()
		}
	}
	return n
})

// PutRunsResponse reports the saved records' display names, in input
// order.
type PutRunsResponse struct {
	Saved []string `json:"saved"`
}

// QueryHit is one matching result of a cross-run query. The application
// is carried once on the response, not per hit.
type QueryHit struct {
	Version string             `json:"version"`
	RunID   string             `json:"run_id"`
	Result  history.NodeResult `json:"result"`
}

// QueryResponse is GET /api/v1/query.
type QueryResponse struct {
	App  string     `json:"app"`
	Hits []QueryHit `json:"hits"`
}

var (
	queryHitShape = history.NewShape(
		history.Field("version", func(h *QueryHit) *string { return &h.Version }, history.String),
		history.Field("run_id", func(h *QueryHit) *string { return &h.RunID }, history.String),
		history.Field("result", func(h *QueryHit) *history.NodeResult { return &h.Result }, history.ResultShape.Value()),
	)
	queryResponseShape = history.NewShape(
		history.Field("app", func(q *QueryResponse) *string { return &q.App }, history.String),
		history.Field("hits", func(q *QueryResponse) *[]QueryHit { return &q.Hits }, history.ArrayOf(queryHitShape.Value())),
	).SizedBy(func(q *QueryResponse) int {
		n := len(q.App) + 64
		for i := range q.Hits {
			h := &q.Hits[i]
			n += 320 + len(h.Version) + len(h.RunID) + len(h.Result.Hyp) + len(h.Result.Focus)
		}
		return n
	})
)

// PersistentPair is one (hypothesis : focus) pair with the number of
// stored runs it tested true in.
type PersistentPair struct {
	Key  string `json:"key"`
	Runs int    `json:"runs"`
}

// PersistentResponse is GET /api/v1/persistent, ordered by descending
// run count then key.
type PersistentResponse struct {
	App     string           `json:"app"`
	MinRuns int              `json:"min_runs"`
	Pairs   []PersistentPair `json:"pairs"`
}

// SpecificResponse is GET /api/v1/specific: the most specific
// bottlenecks of one stored run, by descending value.
type SpecificResponse struct {
	App       string               `json:"app"`
	Version   string               `json:"version"`
	RunID     string               `json:"run_id"`
	TrueCount int                  `json:"true_count"`
	Results   []history.NodeResult `json:"results"`
}

// CompareResponse is GET /api/v1/compare: the structured diff of two
// stored executions plus the human-readable rendering pccompare prints.
type CompareResponse struct {
	App        string             `json:"app"`
	A          string             `json:"a"`
	B          string             `json:"b"`
	Eps        float64            `json:"eps"`
	Diff       *core.RunDiff      `json:"diff"`
	Similarity float64            `json:"similarity"`
	Improved   []core.PairOutcome `json:"improved,omitempty"`
	Worsened   []core.PairOutcome `json:"worsened,omitempty"`
	Rendered   string             `json:"rendered"`
}

// HarvestRequest is POST /api/v1/harvest: extract directives from the
// named stored runs, combine them, and optionally map them toward a
// target run's namespace.
type HarvestRequest struct {
	App string `json:"app"`
	// Runs are VERSION:RUNID references of the source runs.
	Runs    []string            `json:"runs"`
	Options core.HarvestOptions `json:"options"`
	// Combine folds multiple sources: "and" (intersection, the default)
	// or "or" (union).
	Combine string `json:"combine,omitempty"`
	// MapTo, when set, names a target run; mappings are inferred from
	// the first source toward it and applied to the combined set.
	MapTo string `json:"map_to,omitempty"`
}

// HarvestResponse carries the harvested set in the canonical directive
// text format (FORMATS.md) — the same bytes pcextract writes — plus the
// inferred mappings when MapTo was requested.
type HarvestResponse struct {
	Source     string `json:"source,omitempty"`
	Directives string `json:"directives"`
	Prunes     int    `json:"prunes"`
	Priorities int    `json:"priorities"`
	Thresholds int    `json:"thresholds"`
	// Mappings is the inferred mapping set in the mapping text format;
	// MappingCount its size.
	Mappings     string `json:"mappings,omitempty"`
	MappingCount int    `json:"mapping_count,omitempty"`
}

// directiveSize is a buffer for a shape that carries a directive and a
// mapping text: an eighth more than the texts, for the escapes of a
// focus name's < and >.
func directiveSize(directives, mappings string) int {
	return 256 + len(directives)*9/8 + len(mappings)*9/8
}

var harvestShape = history.NewShape(
	history.OmitEmpty("source", func(v *HarvestResponse) *string { return &v.Source }, history.String),
	history.Field("directives", func(v *HarvestResponse) *string { return &v.Directives }, history.String),
	history.Field("prunes", func(v *HarvestResponse) *int { return &v.Prunes }, history.Int),
	history.Field("priorities", func(v *HarvestResponse) *int { return &v.Priorities }, history.Int),
	history.Field("thresholds", func(v *HarvestResponse) *int { return &v.Thresholds }, history.Int),
	history.OmitEmpty("mappings", func(v *HarvestResponse) *string { return &v.Mappings }, history.String),
	history.OmitEmpty("mapping_count", func(v *HarvestResponse) *int { return &v.MappingCount }, history.Int),
).SizedBy(func(v *HarvestResponse) int { return directiveSize(v.Directives, v.Mappings) })

// DiagnoseRequest is POST /api/v1/diagnose: run one on-demand diagnosis
// session, optionally directed and optionally saved to the server's
// store.
type DiagnoseRequest struct {
	App     string `json:"app"`
	Version string `json:"version,omitempty"`
	// RunID labels the produced record (default "run1").
	RunID string `json:"run_id,omitempty"`
	// NodeOffset/PidBase/Procs parameterize the application build, as
	// pcrun's flags do.
	NodeOffset int `json:"node_offset,omitempty"`
	PidBase    int `json:"pid_base,omitempty"`
	Procs      int `json:"procs,omitempty"`
	// MaxTime bounds the diagnosis in virtual seconds (default 50000).
	MaxTime float64 `json:"max_time,omitempty"`
	// Seed overrides the simulator seed when non-zero.
	Seed int64 `json:"seed,omitempty"`
	// Directives/Mappings are in the text formats of FORMATS.md
	// (typically a HarvestResponse's fields, fed straight back).
	Directives string `json:"directives,omitempty"`
	Mappings   string `json:"mappings,omitempty"`
	// Save persists the run record to the server's store.
	Save bool `json:"save,omitempty"`
	// IdempotencyKey, when non-empty, makes the request durable and
	// exactly-once on a journaling server: the accepted request is
	// journaled before the session runs, a crash-orphaned session is
	// resumed after restart, and a resend with the same key is answered
	// with the stored bytes instead of a re-run. Clients generate one
	// with client.NewIdempotencyKey.
	IdempotencyKey string `json:"idempotency_key,omitempty"`
}

var diagnoseShape = history.NewShape(
	history.Field("app", func(v *DiagnoseRequest) *string { return &v.App }, history.String),
	history.OmitEmpty("version", func(v *DiagnoseRequest) *string { return &v.Version }, history.String),
	history.OmitEmpty("run_id", func(v *DiagnoseRequest) *string { return &v.RunID }, history.String),
	history.OmitEmpty("node_offset", func(v *DiagnoseRequest) *int { return &v.NodeOffset }, history.Int),
	history.OmitEmpty("pid_base", func(v *DiagnoseRequest) *int { return &v.PidBase }, history.Int),
	history.OmitEmpty("procs", func(v *DiagnoseRequest) *int { return &v.Procs }, history.Int),
	history.OmitEmpty("max_time", func(v *DiagnoseRequest) *float64 { return &v.MaxTime }, history.Float),
	history.OmitEmpty("seed", func(v *DiagnoseRequest) *int64 { return &v.Seed }, history.Int64),
	history.OmitEmpty("directives", func(v *DiagnoseRequest) *string { return &v.Directives }, history.String),
	history.OmitEmpty("mappings", func(v *DiagnoseRequest) *string { return &v.Mappings }, history.String),
	history.OmitEmpty("save", func(v *DiagnoseRequest) *bool { return &v.Save }, history.Bool),
	history.OmitEmpty("idempotency_key", func(v *DiagnoseRequest) *string { return &v.IdempotencyKey }, history.String),
).SizedBy(func(v *DiagnoseRequest) int { return directiveSize(v.Directives, v.Mappings) })

// DiagnoseBottleneck is one reported problem of a diagnosis session.
type DiagnoseBottleneck struct {
	Hyp     string  `json:"hyp"`
	Focus   string  `json:"focus"`
	Value   float64 `json:"value"`
	FoundAt float64 `json:"found_at"`
}

// DiagnoseResponse is the outcome of one on-demand session.
type DiagnoseResponse struct {
	App               string               `json:"app"`
	Version           string               `json:"version,omitempty"`
	RunID             string               `json:"run_id"`
	Quiesced          bool                 `json:"quiesced"`
	EndTime           float64              `json:"end_time"`
	PairsTested       int                  `json:"pairs_tested"`
	SkippedDirectives int                  `json:"skipped_directives,omitempty"`
	Bottlenecks       []DiagnoseBottleneck `json:"bottlenecks"`
	// Saved is the stored record's display name when Save was set.
	Saved string `json:"saved,omitempty"`
}

var (
	diagnoseBottleneckShape = history.NewShape(
		history.Field("hyp", func(v *DiagnoseBottleneck) *string { return &v.Hyp }, history.Label),
		history.Field("focus", func(v *DiagnoseBottleneck) *string { return &v.Focus }, history.String),
		history.Field("value", func(v *DiagnoseBottleneck) *float64 { return &v.Value }, history.Float),
		history.Field("found_at", func(v *DiagnoseBottleneck) *float64 { return &v.FoundAt }, history.Float),
	)
	diagnoseResponseShape = history.NewShape(
		history.Field("app", func(v *DiagnoseResponse) *string { return &v.App }, history.String),
		history.OmitEmpty("version", func(v *DiagnoseResponse) *string { return &v.Version }, history.String),
		history.Field("run_id", func(v *DiagnoseResponse) *string { return &v.RunID }, history.String),
		history.Field("quiesced", func(v *DiagnoseResponse) *bool { return &v.Quiesced }, history.Bool),
		history.Field("end_time", func(v *DiagnoseResponse) *float64 { return &v.EndTime }, history.Float),
		history.Field("pairs_tested", func(v *DiagnoseResponse) *int { return &v.PairsTested }, history.Int),
		history.OmitEmpty("skipped_directives", func(v *DiagnoseResponse) *int { return &v.SkippedDirectives }, history.Int),
		history.Field("bottlenecks", func(v *DiagnoseResponse) *[]DiagnoseBottleneck { return &v.Bottlenecks }, history.ArrayOf(diagnoseBottleneckShape.Value())),
		history.OmitEmpty("saved", func(v *DiagnoseResponse) *string { return &v.Saved }, history.String),
	).SizedBy(func(v *DiagnoseResponse) int {
		n := 256 + len(v.App) + len(v.Version) + len(v.RunID) + len(v.Saved)
		for i := range v.Bottlenecks {
			n += 128 + len(v.Bottlenecks[i].Hyp) + len(v.Bottlenecks[i].Focus)*9/8
		}
		return n
	})
)
