package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/history"
	"repro/internal/replica"
)

// routes builds the service mux. Every route goes through handle, which
// wraps the handler in counted — the /statsz in-flight gauge and the
// per-endpoint op counters — and records the (pattern, op) pair so the
// statsz coverage test can enumerate the full surface.
func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	s.handle(mux, "GET /healthz", "healthz", s.handleHealth)
	s.handle(mux, "GET /statsz", "statsz", s.handleStats)
	s.handle(mux, "GET /api/v1/runs", "runs", s.handleRuns)
	s.handle(mux, "GET /api/v1/run", "get_run", s.handleGetRun)
	s.handle(mux, "PUT /api/v1/run", "put_run", s.handlePutRun)
	s.handle(mux, "POST /api/v1/runs/batch", "put_runs", s.handlePutRuns)
	s.handle(mux, "DELETE /api/v1/run", "delete_run", s.handleDeleteRun)
	s.handle(mux, "GET /api/v1/query", "query", s.handleQuery)
	s.handle(mux, "GET /api/v1/persistent", "persistent", s.handlePersistent)
	s.handle(mux, "GET /api/v1/specific", "specific", s.handleSpecific)
	s.handle(mux, "GET /api/v1/compare", "compare", s.handleCompare)
	s.handle(mux, "POST /api/v1/harvest", "harvest", s.handleHarvest)
	s.handle(mux, "POST /api/v1/diagnose", "diagnose", s.handleDiagnose)
	s.handle(mux, "POST /api/v1/ingest/start", "ingest_start", s.handleIngestStart)
	s.handle(mux, "POST /api/v1/ingest/samples", "ingest_samples", s.handleIngestSamples)
	s.handle(mux, "POST /api/v1/ingest/end", "ingest_end", s.handleIngestEnd)
	if n := s.replication; n != nil {
		s.handle(mux, "GET /api/v1/replica/info", "replica_info", n.HandleInfo)
		if n.Primary != nil {
			s.handle(mux, "GET /api/v1/replica/wal", "replica_wal", n.Primary.HandleWAL)
			s.handle(mux, "GET /api/v1/replica/snapshot", "replica_snapshot", n.Primary.HandleSnapshot)
		}
		if n.Follower != nil {
			s.handle(mux, "POST /api/v1/replica/promote", "replica_promote", n.Follower.HandlePromote)
			s.handle(mux, "POST /api/v1/replica/op", "replica_op", n.Follower.HandleOp)
		}
	}
	return mux
}

// route is one registered endpoint: its mux pattern and the op name its
// /statsz counter is keyed by.
type route struct {
	Pattern string
	Op      string
}

// handle registers pattern on mux through the counted middleware and
// records the route for enumeration.
func (s *Server) handle(mux *http.ServeMux, pattern, op string, h http.HandlerFunc) {
	s.routeTable = append(s.routeTable, route{Pattern: pattern, Op: op})
	mux.HandleFunc(pattern, s.counted(op, h))
}

// counted registers a cumulative op counter under name and wraps h to
// bump it and the in-flight gauge, and caps the request body at
// maxTrustedLength: no record past the journal's frame limit could be
// stored anyway, and reading more is writeErr's 413. The counter map is
// written only here, during construction; serving reads it lock-free.
func (s *Server) counted(name string, h http.HandlerFunc) http.HandlerFunc {
	ctr := &atomic.Uint64{}
	s.opCounts[name] = ctr
	return func(w http.ResponseWriter, r *http.Request) {
		s.inFlight.Add(1)
		defer s.inFlight.Add(-1)
		ctr.Add(1)
		r.Body = http.MaxBytesReader(w, r.Body, maxTrustedLength)
		h(w, r)
	}
}

// writeJSON writes v in the canonical encoding with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	data, err := MarshalCanonical(v)
	if err != nil {
		http.Error(w, `{"error":"encoding failed"}`, http.StatusInternalServerError)
		return
	}
	writeBody(w, status, data)
}

// writeEncoded is writeJSON for a 200 whose encoding is stage "encode"
// of op, which began at t.
func (s *Server) writeEncoded(w http.ResponseWriter, op string, t time.Time, v any) {
	data, err := MarshalCanonical(v)
	if err != nil {
		http.Error(w, `{"error":"encoding failed"}`, http.StatusInternalServerError)
		return
	}
	s.stages.Since(op, "encode", t)
	writeBody(w, http.StatusOK, data)
}

// writeBody sends an encoded JSON body with its length declared:
// net/http only works the length out for itself below 2 KB, and a get
// or a query body sent chunked is one the client cannot size a buffer
// for.
func writeBody(w http.ResponseWriter, status int, data []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	w.WriteHeader(status)
	w.Write(data)
}

// decodeBody reads a request body whole (ReadBody) and decodes it into
// the zero *out: through the codec's strict decoder when it reads the
// shape and the bytes, otherwise through encoding/json's stream decoder,
// which takes the first JSON value of the body as it always has. A put
// body is history.DecodePut's or DecodePutBatch's instead.
func decodeBody(r *http.Request, out any) error {
	body, err := ReadBody(r.Body, r.ContentLength)
	if err != nil {
		return err
	}
	if unmarshalStrict(body, out) {
		return nil
	}
	return json.NewDecoder(bytes.NewReader(body)).Decode(out)
}

// writeErr maps an error to a JSON error response: come-back-later
// refusals are 503 + Retry-After, missing records 404, a request body
// over the cap 413, cancelled or timed-out requests 503/504, the
// server's own faults 500, everything else the fallback (usually 400).
func writeErr(w http.ResponseWriter, err error, fallback int) {
	status := fallback
	var ue *unavailableError
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		status = http.StatusRequestEntityTooLarge
	case errors.As(err, &ue):
		setRetryAfter(w.Header(), ue.wait)
		status = http.StatusServiceUnavailable
	case errors.Is(err, os.ErrNotExist):
		status = http.StatusNotFound
	case errors.Is(err, replica.ErrFenced):
		// A newer epoch owns this keyspace: 409, deliberately NOT
		// retryable — a fenced node stays fenced, and the client must
		// repoint rather than spin.
		status = http.StatusConflict
	case errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// The client is gone; the status is for the log's benefit.
		status = http.StatusServiceUnavailable
	case errors.As(err, new(internalError)):
		status = http.StatusInternalServerError
	}
	writeJSON(w, status, ErrorResponse{Error: err.Error()})
}

// internalError is a failure of the server's own, not the request's (a
// journal it cannot write, a response it cannot encode): 500.
type internalError struct{ error }

func (e internalError) Unwrap() error { return e.error }

// appParam fetches the required app query parameter.
func appParam(r *http.Request) (string, error) {
	a := r.URL.Query().Get("app")
	if a == "" {
		return "", fmt.Errorf("missing app parameter")
	}
	return a, nil
}

// runKeyParam fetches the app + ref (VERSION:RUNID) pair naming one
// stored run.
func runKeyParam(r *http.Request) (history.RecordKey, error) {
	a, err := appParam(r)
	if err != nil {
		return history.RecordKey{}, err
	}
	ref := r.URL.Query().Get("ref")
	if ref == "" {
		return history.RecordKey{}, fmt.Errorf("missing ref parameter (want VERSION:RUNID)")
	}
	return history.ParseRunKey(a, ref)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	status := "ok"
	if draining {
		status = "draining"
	} else if degraded, _ := s.healthProbe(); degraded {
		status = "degraded"
	}
	writeJSON(w, http.StatusOK, HealthResponse{Status: status})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.stats())
}

func (s *Server) handleRuns(w http.ResponseWriter, r *http.Request) {
	st := s.env.Store()
	appName := r.URL.Query().Get("app")
	version := r.URL.Query().Get("version")
	var names []string
	if appName == "" {
		var err error
		names, err = st.List()
		if err != nil {
			writeErr(w, err, http.StatusInternalServerError)
			return
		}
	} else {
		recs, err := st.LoadAll(appName, version)
		if err != nil {
			writeErr(w, err, http.StatusBadRequest)
			return
		}
		names = make([]string, 0, len(recs))
		for _, rec := range recs {
			names = append(names, rec.Key().String())
		}
		sort.Strings(names)
	}
	writeJSON(w, http.StatusOK, RunsResponse{Runs: names})
}

func (s *Server) handleGetRun(w http.ResponseWriter, r *http.Request) {
	key, err := runKeyParam(r)
	if err != nil {
		writeErr(w, err, http.StatusBadRequest)
		return
	}
	t := time.Now()
	rec, data, err := s.env.Store().LoadStored(key.App, key.Version, key.RunID)
	if err != nil {
		s.failStore(w, err, http.StatusBadRequest)
		return
	}
	t = s.stages.Since("get_run", "read", t)
	if data == nil {
		// The stored bytes could not be vouched for: the index copy encodes
		// to what they would have been.
		s.writeEncoded(w, "get_run", t, rec)
		return
	}
	// A file read leaves a byte of room past the record for the newline.
	writeBody(w, http.StatusOK, append(data, '\n'))
}

func (s *Server) handlePutRun(w http.ResponseWriter, r *http.Request) {
	t := time.Now()
	body, err := ReadBody(r.Body, r.ContentLength)
	var e history.Encoded
	if err == nil {
		t = s.stages.Since("put_run", "read", t)
		e, err = history.DecodePut(body)
		t = s.stages.Since("put_run", "decode", t)
	}
	if err != nil {
		writeErr(w, fmt.Errorf("decode run record: %w", err), http.StatusBadRequest)
		return
	}
	key := e.Record().Key()
	err = s.storeWrite([]history.RecordKey{key}, func() error {
		_, err := history.SaveEncoded(s.env.Store(), []history.Encoded{e})
		return err
	})
	s.stages.Since("put_run", "write", t)
	if err != nil {
		writeErr(w, err, http.StatusBadRequest)
		return
	}
	writeJSON(w, http.StatusOK, PutRunResponse{Saved: key.String()})
}

func (s *Server) handleDeleteRun(w http.ResponseWriter, r *http.Request) {
	key, err := runKeyParam(r)
	if err != nil {
		writeErr(w, err, http.StatusBadRequest)
		return
	}
	err = s.storeWrite([]history.RecordKey{key}, func() error {
		return s.env.Store().Delete(key.App, key.Version, key.RunID)
	})
	if err != nil {
		writeErr(w, err, http.StatusBadRequest)
		return
	}
	writeJSON(w, http.StatusOK, DeleteRunResponse{Deleted: key.String()})
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	appName, err := appParam(r)
	if err != nil {
		writeErr(w, err, http.StatusBadRequest)
		return
	}
	q := r.URL.Query()
	minValue := 0.0
	if v := q.Get("min"); v != "" {
		minValue, err = strconv.ParseFloat(v, 64)
		if err != nil {
			writeErr(w, fmt.Errorf("bad min parameter: %w", err), http.StatusBadRequest)
			return
		}
	}
	t := time.Now()
	hits, err := s.env.Store().Query(appName, q.Get("version"), history.ResultFilter{
		Hyp:           q.Get("hyp"),
		FocusContains: q.Get("focus"),
		State:         q.Get("state"),
		MinValue:      minValue,
	})
	if err != nil {
		writeErr(w, err, http.StatusBadRequest)
		return
	}
	resp := QueryResponse{App: appName, Hits: WireQueryHits(hits)}
	s.writeEncoded(w, "query", s.stages.Since("query", "read", t), resp)
}

// WireQueryHits converts store query hits to the wire shape. Shared
// with pcquery's -json mode so local and remote output match byte for
// byte.
func WireQueryHits(hits []history.QueryHit) []QueryHit {
	out := make([]QueryHit, len(hits))
	for i, h := range hits {
		out[i] = QueryHit{Version: h.Version, RunID: h.RunID, Result: h.Result}
	}
	return out
}

func (s *Server) handlePersistent(w http.ResponseWriter, r *http.Request) {
	appName, err := appParam(r)
	if err != nil {
		writeErr(w, err, http.StatusBadRequest)
		return
	}
	q := r.URL.Query()
	minRuns := 2
	if v := q.Get("min"); v != "" {
		minRuns, err = strconv.Atoi(v)
		if err != nil || minRuns < 1 {
			writeErr(w, fmt.Errorf("bad min parameter %q", v), http.StatusBadRequest)
			return
		}
	}
	counts, err := s.env.Store().PersistentBottlenecks(appName, q.Get("version"), minRuns)
	if err != nil {
		writeErr(w, err, http.StatusBadRequest)
		return
	}
	writeJSON(w, http.StatusOK, PersistentResponse{
		App: appName, MinRuns: minRuns, Pairs: SortedPersistent(counts),
	})
}

// SortedPersistent orders persistent-bottleneck counts by descending
// run count then key — the order pcquery prints and the wire carries.
func SortedPersistent(counts map[string]int) []PersistentPair {
	out := make([]PersistentPair, 0, len(counts))
	for k, n := range counts {
		out = append(out, PersistentPair{Key: k, Runs: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Runs != out[j].Runs {
			return out[i].Runs > out[j].Runs
		}
		return out[i].Key < out[j].Key
	})
	return out
}

func (s *Server) handleSpecific(w http.ResponseWriter, r *http.Request) {
	key, err := runKeyParam(r)
	if err != nil {
		writeErr(w, err, http.StatusBadRequest)
		return
	}
	rec, err := s.env.Store().Load(key.App, key.Version, key.RunID)
	if err != nil {
		s.failStore(w, err, http.StatusBadRequest)
		return
	}
	writeJSON(w, http.StatusOK, SpecificResponse{
		App:       rec.App,
		Version:   rec.Version,
		RunID:     rec.RunID,
		TrueCount: rec.TrueCount,
		Results:   core.MostSpecificBottlenecks(rec),
	})
}

func (s *Server) handleCompare(w http.ResponseWriter, r *http.Request) {
	appName, err := appParam(r)
	if err != nil {
		writeErr(w, err, http.StatusBadRequest)
		return
	}
	q := r.URL.Query()
	eps := 0.02
	if v := q.Get("eps"); v != "" {
		eps, err = strconv.ParseFloat(v, 64)
		if err != nil {
			writeErr(w, fmt.Errorf("bad eps parameter: %w", err), http.StatusBadRequest)
			return
		}
	}
	load := func(param string) (*history.RunRecord, error) {
		ref := q.Get(param)
		if ref == "" {
			return nil, fmt.Errorf("missing %s parameter (want VERSION:RUNID)", param)
		}
		key, err := history.ParseRunKey(appName, ref)
		if err != nil {
			return nil, err
		}
		return s.env.Store().Load(key.App, key.Version, key.RunID)
	}
	a, err := load("a")
	if err != nil {
		s.failStore(w, err, http.StatusBadRequest)
		return
	}
	b, err := load("b")
	if err != nil {
		s.failStore(w, err, http.StatusBadRequest)
		return
	}
	resp, err := BuildCompareResponse(a, b, eps)
	if err != nil {
		writeErr(w, err, http.StatusBadRequest)
		return
	}
	resp.A, resp.B = q.Get("a"), q.Get("b")
	writeJSON(w, http.StatusOK, resp)
}

// BuildCompareResponse runs CompareRuns and packages the result in the
// wire shape. Shared with pccompare's -json mode.
func BuildCompareResponse(a, b *history.RunRecord, eps float64) (*CompareResponse, error) {
	diff, err := core.CompareRuns(a, b)
	if err != nil {
		return nil, err
	}
	return &CompareResponse{
		App:        a.App,
		Eps:        eps,
		Diff:       diff,
		Similarity: diff.Similarity(),
		Improved:   diff.Improved(eps),
		Worsened:   diff.Worsened(eps),
		Rendered:   diff.Render(),
	}, nil
}

func (s *Server) handleHarvest(w http.ResponseWriter, r *http.Request) {
	var req HarvestRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, fmt.Errorf("decode harvest request: %w", err), http.StatusBadRequest)
		return
	}
	if req.App == "" {
		writeErr(w, fmt.Errorf("missing app"), http.StatusBadRequest)
		return
	}
	ds, maps, err := s.env.HarvestRuns(req.App, req.Runs, req.Options, req.Combine, req.MapTo)
	if err != nil {
		writeErr(w, err, http.StatusBadRequest)
		return
	}
	resp := HarvestResponse{
		Source:     ds.Source,
		Directives: s.env.Cache().Format(ds),
		Prunes:     len(ds.Prunes),
		Priorities: len(ds.Priorities),
		Thresholds: len(ds.Thresholds),
	}
	if len(maps) > 0 {
		resp.Mappings = core.FormatMappings(maps)
		resp.MappingCount = len(maps)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleDiagnose(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		writeErr(w, fmt.Errorf("read diagnose request: %w", err), http.StatusBadRequest)
		return
	}
	var req DiagnoseRequest
	if err := UnmarshalCanonical(body, &req); err != nil {
		writeErr(w, fmt.Errorf("decode diagnose request: %w", err), http.StatusBadRequest)
		return
	}
	if !s.beginDiagnose() {
		s.refused(refusedDraining)
		writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{Error: "server is draining"})
		return
	}
	defer s.endDiagnose()
	raw, err := s.diagnose(r.Context(), &req, body)
	if err != nil {
		writeErr(w, err, http.StatusBadRequest)
		return
	}
	writeBody(w, http.StatusOK, raw)
}

// diagnose runs one admitted diagnose request, live or resumed, and
// returns its response bytes. A keyed request on a journaling server is
// answered from the journal once done; otherwise it is claimed as
// pending before its session runs, and then a success is journaled
// done, a transient failure (*unavailableError, a deadline or a
// cancellation) only releases the claim, leaving the record pending
// for a resend or the next resume, and any other failure removes it.
func (s *Server) diagnose(ctx context.Context, req *DiagnoseRequest, body []byte) ([]byte, error) {
	key := req.IdempotencyKey
	if s.journal == nil {
		key = "" // no journal: keyed requests run like plain ones
	}
	if key != "" {
		// 255 bytes is the longest file name common filesystems take.
		if n := len(escapeKey(key)) + len(".json"); n > 255 {
			return nil, fmt.Errorf("idempotency key too long: its journal file name would be %d bytes, over 255", n)
		}
		stored, owner, err := s.journal.begin(ctx, key, body)
		if err != nil {
			return nil, internalError{err}
		}
		if !owner {
			// The session already ran (here or before a crash-restart):
			// replay the stored bytes verbatim.
			s.counts.journalHits.Add(1)
			return stored, nil
		}
	}
	resp, err := s.runDiagnose(ctx, req)
	var raw []byte
	if err == nil {
		t := time.Now()
		if raw, err = MarshalCanonical(resp); err != nil {
			err = internalError{err}
		}
		s.stages.Since("diagnose", "encode", t)
	}
	var ue *unavailableError
	switch {
	case key == "": // not journaled
	case err == nil:
		// A failed journal write loses only replay durability; the client
		// gets its result either way.
		s.journal.finish(key, body, raw)
	case errors.As(err, &ue), errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		s.journal.release(key)
	default:
		s.journal.fail(key)
	}
	return raw, err
}

// runDiagnose executes one diagnose request end to end — build, pooled
// session run, response assembly, optional store save — and returns the
// response, or an error writeErr maps onto the wire (*unavailableError
// for come-back-later failures). Shared by the live handler and
// crash-recovery session resume, so both produce identical results for
// identical requests.
func (s *Server) runDiagnose(ctx context.Context, req *DiagnoseRequest) (*DiagnoseResponse, error) {
	a, cfg, err := s.diagnoseSession(req)
	if err != nil {
		return nil, err
	}
	if s.sessionTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.sessionTimeout)
		defer cancel()
	}
	res, err := s.runSession(ctx, a, cfg)
	if err != nil {
		return nil, err
	}
	resp := &DiagnoseResponse{
		App:               req.App,
		Version:           req.Version,
		RunID:             cfg.RunID,
		Quiesced:          res.Quiesced,
		EndTime:           res.EndTime,
		PairsTested:       res.PairsTested,
		SkippedDirectives: res.SkippedDirectives,
		Bottlenecks:       WireBottlenecks(res.Bottlenecks),
	}
	if req.Save {
		var rec *history.RunRecord
		err := s.storeWrite([]history.RecordKey{{App: req.App, Version: req.Version}}, func() (err error) {
			rec, err = s.env.SaveResult(res)
			return err
		})
		if err != nil {
			return nil, err
		}
		resp.Saved = rec.Key().String()
	}
	return resp, nil
}

// runSession runs one diagnosis session in a slot of the server-wide
// pool. ctx bounds only the wait for a slot: a session that has started
// runs to completion.
func (s *Server) runSession(ctx context.Context, a *app.App, cfg harness.SessionConfig) (*harness.SessionResult, error) {
	t := time.Now()
	if err := s.pool.Acquire(ctx); err != nil {
		return nil, err
	}
	defer s.pool.Release()
	t = s.stages.Since("diagnose", "wait", t)
	defer s.stages.Since("diagnose", "session", t)
	return s.session(ctx, a, cfg)
}

// runHarnessSession is the default session seam. A session is pure
// computation and takes no context.
func runHarnessSession(_ context.Context, a *app.App, cfg harness.SessionConfig) (*harness.SessionResult, error) {
	return harness.RunSession(a, cfg)
}

// diagnoseSession turns a wire request into the application and config
// of one session. Building the application is also the check that the
// request names a known one.
func (s *Server) diagnoseSession(req *DiagnoseRequest) (*app.App, harness.SessionConfig, error) {
	cfg := harness.DefaultSessionConfig()
	if req.App == "" {
		return nil, cfg, fmt.Errorf("missing app")
	}
	if req.RunID != "" {
		cfg.RunID = req.RunID
	}
	if req.MaxTime > 0 {
		cfg.MaxTime = req.MaxTime
	}
	if req.Seed != 0 {
		cfg.Sim.Seed = req.Seed
	}
	if req.Directives != "" {
		// A text this server's harvest wrote is its set, compiled once.
		ds, guide, err := s.env.Cache().Directives(req.Directives)
		if err != nil {
			return nil, cfg, fmt.Errorf("directives: %w", err)
		}
		cfg.Directives, cfg.Guide = ds, guide
	}
	if req.Mappings != "" {
		maps, err := core.ParseMappings(strings.NewReader(req.Mappings))
		if err != nil {
			return nil, cfg, fmt.Errorf("mappings: %w", err)
		}
		cfg.Mappings = maps
	}
	a, err := app.Build(req.App, req.Version, app.Options{NodeOffset: req.NodeOffset, PidBase: req.PidBase, Procs: req.Procs})
	return a, cfg, err
}

// WireBottlenecks converts session bottlenecks to the wire shape.
func WireBottlenecks(bs []harness.Bottleneck) []DiagnoseBottleneck {
	out := make([]DiagnoseBottleneck, len(bs))
	for i, b := range bs {
		out[i] = DiagnoseBottleneck{Hyp: b.Hyp, Focus: b.Focus, Value: b.Value, FoundAt: b.FoundAt}
	}
	return out
}
