package server

import (
	"encoding/json"
	"io"
	"math"
	"strconv"

	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/ingest"
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
// encoder. The shapes that carry results — a run record, a query
// response, a batch of records — are written by the direct codec of
// internal/history, byte for byte what encoding/json writes for them;
// everything else, and any of those holding a float JSON cannot spell
// (which encoding/json refuses with the error returned here), takes the
// reflective path.
func MarshalCanonical(v any) ([]byte, error) {
	switch v := v.(type) {
	case *history.RunRecord:
		if v != nil && v.CheckFinite() == nil {
			dst := make([]byte, 0, v.EncodedSizeHint())
			return append(history.AppendRecord(dst, v, 0), '\n'), nil
		}
	case QueryResponse:
		if n, ok := v.sizeHint(); ok {
			return v.appendCanonical(make([]byte, 0, n)), nil
		}
	case *QueryResponse:
		if v != nil {
			return MarshalCanonical(*v)
		}
	case PutRunsRequest:
		if n, ok := v.sizeHint(); ok {
			return v.appendCanonical(make([]byte, 0, n)), nil
		}
	case HarvestResponse:
		// An eighth more than the texts: the escapes of a focus name's < and >.
		dst := make([]byte, 0, 256+len(v.Directives)*9/8+len(v.Mappings)*9/8)
		if data, ok := harvestShape.append(dst, &v, true); ok {
			return append(data, '\n'), nil
		}
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// MarshalCompact is json.Marshal for a request body: a diagnose request,
// which carries a directive text, is written by the codec, everything
// else — and a request holding a float JSON cannot spell — by
// encoding/json.
func MarshalCompact(v any) ([]byte, error) {
	if v, ok := v.(*DiagnoseRequest); ok && v != nil {
		dst := make([]byte, 0, 256+len(v.Directives)*9/8+len(v.Mappings)*9/8)
		if data, ok := diagnoseShape.append(dst, v, false); ok {
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

// unmarshalStrict decodes data into *out when out is one of the codec's
// shapes and the strict decoder reads all of data; otherwise *out is
// untouched and the caller runs encoding/json.
func unmarshalStrict(data []byte, out any) bool {
	switch out := out.(type) {
	case *history.RunRecord:
		return strict(data, out, (*history.Decoder).Record)
	case *QueryResponse:
		return strict(data, out, decodeQuery)
	case *ingest.SamplesRequest:
		return ingest.ParseSamplesRequest(data, out)
	case *HarvestResponse:
		return strict(data, out, harvestShape.decode)
	case *DiagnoseRequest:
		return strict(data, out, diagnoseShape.decode)
	}
	return false
}

func strict[T any](data []byte, out *T, decode func(*history.Decoder, *T)) bool {
	d := history.NewDecoder(data)
	var v T
	decode(d, &v)
	if !d.End() {
		return false
	}
	*out = v
	return true
}

// shape is a flat wire object written once, as its member table: append
// and decode both walk it, so the two cannot disagree on a name, an
// order or an omitempty.
type shape[T any] struct {
	members []member[T]
	names   []string
}

// member is one member of a shape: its JSON name, whether it is left out
// when zero (omitempty), and the field of v it is — a *string, *int,
// *int64, *float64 or *bool.
type member[T any] struct {
	name  string
	omit  bool
	field func(v *T) any
}

func newShape[T any](members ...member[T]) shape[T] {
	s := shape[T]{members: members}
	for _, m := range members {
		s.names = append(s.names, m.name)
	}
	return s
}

// append appends v as encoding/json writes it — json.MarshalIndent with
// a two-space indent when indent is set, json.Marshal otherwise — or
// reports false for a float JSON cannot spell.
func (s shape[T]) append(dst []byte, v *T, indent bool) ([]byte, bool) {
	dst = append(dst, '{')
	empty := true
	for _, m := range s.members {
		mark := len(dst)
		if !empty {
			dst = append(dst, ',')
		}
		if indent {
			dst = append(dst, "\n  "...)
		}
		dst = append(append(append(dst, '"'), m.name...), '"', ':')
		if indent {
			dst = append(dst, ' ')
		}
		var zero bool
		switch p := m.field(v).(type) {
		case *string:
			dst, zero = history.AppendString(dst, *p), *p == ""
		case *int:
			dst, zero = strconv.AppendInt(dst, int64(*p), 10), *p == 0
		case *int64:
			dst, zero = strconv.AppendInt(dst, *p, 10), *p == 0
		case *bool:
			dst, zero = strconv.AppendBool(dst, *p), !*p
		case *float64:
			if math.IsInf(*p, 0) || math.IsNaN(*p) {
				return nil, false
			}
			dst, zero = history.AppendFloat(dst, *p), *p == 0
		}
		if m.omit && zero {
			dst = dst[:mark] // omitempty: written, and taken back
			continue
		}
		empty = false
	}
	if indent && !empty {
		dst = append(dst, '\n')
	}
	return append(dst, '}'), true
}

// decode reads an object of s's members into v, which must be zero.
func (s shape[T]) decode(d *history.Decoder, v *T) {
	d.Object(s.names, func(i int) {
		switch p := s.members[i].field(v).(type) {
		case *string:
			*p = d.String()
		case *int:
			*p = d.Int()
		case *int64:
			*p = int64(d.Int())
		case *float64:
			*p = d.Float()
		case *bool:
			*p = d.Bool()
		}
	})
}

// The two shapes that carry a directive text, member for member their
// struct's fields and tags.
var (
	harvestShape = newShape(
		member[HarvestResponse]{"source", true, func(v *HarvestResponse) any { return &v.Source }},
		member[HarvestResponse]{"directives", false, func(v *HarvestResponse) any { return &v.Directives }},
		member[HarvestResponse]{"prunes", false, func(v *HarvestResponse) any { return &v.Prunes }},
		member[HarvestResponse]{"priorities", false, func(v *HarvestResponse) any { return &v.Priorities }},
		member[HarvestResponse]{"thresholds", false, func(v *HarvestResponse) any { return &v.Thresholds }},
		member[HarvestResponse]{"mappings", true, func(v *HarvestResponse) any { return &v.Mappings }},
		member[HarvestResponse]{"mapping_count", true, func(v *HarvestResponse) any { return &v.MappingCount }},
	)
	diagnoseShape = newShape(
		member[DiagnoseRequest]{"app", false, func(v *DiagnoseRequest) any { return &v.App }},
		member[DiagnoseRequest]{"version", true, func(v *DiagnoseRequest) any { return &v.Version }},
		member[DiagnoseRequest]{"run_id", true, func(v *DiagnoseRequest) any { return &v.RunID }},
		member[DiagnoseRequest]{"node_offset", true, func(v *DiagnoseRequest) any { return &v.NodeOffset }},
		member[DiagnoseRequest]{"pid_base", true, func(v *DiagnoseRequest) any { return &v.PidBase }},
		member[DiagnoseRequest]{"procs", true, func(v *DiagnoseRequest) any { return &v.Procs }},
		member[DiagnoseRequest]{"max_time", true, func(v *DiagnoseRequest) any { return &v.MaxTime }},
		member[DiagnoseRequest]{"seed", true, func(v *DiagnoseRequest) any { return &v.Seed }},
		member[DiagnoseRequest]{"directives", true, func(v *DiagnoseRequest) any { return &v.Directives }},
		member[DiagnoseRequest]{"mappings", true, func(v *DiagnoseRequest) any { return &v.Mappings }},
		member[DiagnoseRequest]{"save", true, func(v *DiagnoseRequest) any { return &v.Save }},
		member[DiagnoseRequest]{"idempotency_key", true, func(v *DiagnoseRequest) any { return &v.IdempotencyKey }},
	)
)

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
	// ActiveDiagnoses counts in-flight /api/v1/diagnose requests (each
	// may hold several sessions).
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
	// SessionsResumed counts orphaned sessions re-run after a restart.
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

// sizeHint is the buffer to encode q into; ok is false when a record
// of q holds a float JSON cannot spell.
func (q PutRunsRequest) sizeHint() (n int, ok bool) {
	for _, rec := range q.Runs {
		if rec != nil {
			if rec.CheckFinite() != nil {
				return 0, false
			}
			n += rec.EncodedSizeHint()
		}
	}
	return n + 64, true
}

func (q PutRunsRequest) appendCanonical(dst []byte) []byte {
	dst = append(dst, "{\n  \"runs\": "...)
	dst = history.AppendArray(dst, len(q.Runs), q.Runs == nil, 1, func(dst []byte, i int) []byte {
		if q.Runs[i] == nil {
			return append(dst, "null"...)
		}
		return history.AppendRecord(dst, q.Runs[i], 2)
	})
	return append(dst, "\n}\n"...)
}

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

// sizeHint is the buffer to encode q into; ok is false when a hit of q
// holds a float JSON cannot spell.
func (q *QueryResponse) sizeHint() (n int, ok bool) {
	for i := range q.Hits {
		h := &q.Hits[i]
		if h.Result.CheckFinite() != nil {
			return 0, false
		}
		n += 320 + len(h.Version) + len(h.RunID) + len(h.Result.Hyp) + len(h.Result.Focus)
	}
	return n + len(q.App) + 64, true
}

func (q *QueryResponse) appendCanonical(dst []byte) []byte {
	dst = append(dst, "{\n  \"app\": "...)
	dst = history.AppendString(dst, q.App)
	dst = append(dst, ",\n  \"hits\": "...)
	dst = history.AppendArray(dst, len(q.Hits), q.Hits == nil, 1, func(dst []byte, i int) []byte {
		h := &q.Hits[i]
		dst = append(dst, "{\n      \"version\": "...)
		dst = history.AppendString(dst, h.Version)
		dst = append(dst, ",\n      \"run_id\": "...)
		dst = history.AppendString(dst, h.RunID)
		dst = append(dst, ",\n      \"result\": "...)
		dst = history.AppendResult(dst, &h.Result, 3)
		return append(dst, "\n    }"...)
	})
	return append(dst, "\n}\n"...)
}

var (
	queryResponseFields = []string{"app", "hits"}
	queryHitFields      = []string{"version", "run_id", "result"}
)

func decodeQuery(d *history.Decoder, q *QueryResponse) {
	d.Object(queryResponseFields, func(i int) {
		if i == 0 {
			q.App = d.String()
			return
		}
		q.Hits = []QueryHit{}
		d.Array(func() {
			q.Hits = append(q.Hits, QueryHit{})
			h := &q.Hits[len(q.Hits)-1]
			d.Object(queryHitFields, func(i int) {
				switch i {
				case 0:
					h.Version = d.String()
				case 1:
					h.RunID = d.String()
				case 2:
					d.Result(&h.Result)
				}
			})
		})
	})
}

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
