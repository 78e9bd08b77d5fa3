package server

import (
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/history"
	"repro/internal/ingest"
)

// The streaming-intake endpoints: POST /api/v1/ingest/{start,samples,
// end} carry the wire shapes of internal/ingest (FORMATS.md "Streaming
// ingestion"). The manager owns the sessions; these handlers only map
// its sentinel errors onto statuses and feed the store-health breaker
// on the write path (the end-of-stream marker is the only call here
// that touches the backend).

// writeIngestErr maps an intake error onto the wire: backpressure is
// 429 + Retry-After (the client's cue to let the queue drain), an
// unknown stream 404, a protocol violation (double start, sequence gap)
// 409, a shut-down intake 503. A full queue frees a slot once its
// stream's worker has fed one batch, so the wait asked for is the
// median feed, at least a millisecond; a stream slot frees only when a
// stream ends, so a start over the cap is asked to wait a second.
func (s *Server) writeIngestErr(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ingest.ErrStreamBusy), errors.Is(err, ingest.ErrTooManyStreams):
		s.refused(refusedIngestBusy)
		wait := time.Second
		if errors.Is(err, ingest.ErrStreamBusy) {
			wait = min(s.stages.Quantile("stream", "feed", 0.5), time.Second)
		}
		setRetryAfter(w.Header(), wait)
		writeJSON(w, http.StatusTooManyRequests, ErrorResponse{Error: err.Error()})
	case errors.Is(err, ingest.ErrNoStream):
		writeJSON(w, http.StatusNotFound, ErrorResponse{Error: err.Error()})
	case errors.Is(err, ingest.ErrStreamExists), errors.Is(err, ingest.ErrOutOfOrder):
		writeJSON(w, http.StatusConflict, ErrorResponse{Error: err.Error()})
	case errors.Is(err, ingest.ErrClosed):
		writeErr(w, s.unavailable(refusedIngestClosed, s.brkPolicy.Cooldown, err), http.StatusBadRequest)
	default:
		writeErr(w, err, http.StatusBadRequest)
	}
}

func (s *Server) handleIngestStart(w http.ResponseWriter, r *http.Request) {
	var req ingest.StartRequest
	if err := decodeBody(r, &req); err != nil {
		writeErr(w, fmt.Errorf("decode ingest start: %w", err), http.StatusBadRequest)
		return
	}
	resp, err := s.intake.Start(&req)
	if err != nil {
		s.writeIngestErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleIngestSamples(w http.ResponseWriter, r *http.Request) {
	var req ingest.SamplesRequest
	t := time.Now()
	if err := decodeBody(r, &req); err != nil {
		writeErr(w, fmt.Errorf("decode ingest samples: %w", err), http.StatusBadRequest)
		return
	}
	s.stages.Since("stream", "decode", t)
	resp, err := s.intake.Samples(&req)
	if err != nil {
		s.writeIngestErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleIngestEnd(w http.ResponseWriter, r *http.Request) {
	var req ingest.EndRequest
	if err := decodeBody(r, &req); err != nil {
		writeErr(w, fmt.Errorf("decode ingest end: %w", err), http.StatusBadRequest)
		return
	}
	// The marker finalizes into the store, so it is a write (refused up
	// front while degraded or gated; the stream stays alive for a later
	// retry). A discard writes nothing and is always allowed.
	var resp *ingest.EndResponse
	end := func() (err error) {
		resp, err = s.intake.End(&req)
		return err
	}
	var err error
	if req.Discard {
		err = end()
	} else {
		err = s.storeWrite([]history.RecordKey{{App: req.App, Version: req.Version}}, end)
	}
	if err != nil {
		s.writeIngestErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handlePutRuns(w http.ResponseWriter, r *http.Request) {
	t := time.Now()
	body, err := ReadBody(r.Body, r.ContentLength)
	var recs []history.Encoded
	if err == nil {
		t = s.stages.Since("put_runs", "read", t)
		recs, err = history.DecodePutBatch(body)
		t = s.stages.Since("put_runs", "decode", t)
	}
	if err != nil {
		writeErr(w, fmt.Errorf("decode runs batch: %w", err), http.StatusBadRequest)
		return
	}
	if len(recs) == 0 {
		writeErr(w, fmt.Errorf("empty batch"), http.StatusBadRequest)
		return
	}
	keys := make([]history.RecordKey, 0, len(recs))
	for _, e := range recs {
		if rec := e.Record(); rec != nil { // the store refuses the batch; nothing to gate
			keys = append(keys, rec.Key())
		}
	}
	err = s.storeWrite(keys, func() error {
		n, err := history.SaveEncoded(s.env.Store(), recs)
		if err != nil {
			// n records landed before the failure; the client's resend
			// overwrites them idempotently.
			return fmt.Errorf("batch stopped after %d of %d: %w", n, len(recs), err)
		}
		return nil
	})
	s.stages.Since("put_runs", "write", t)
	if err != nil {
		writeErr(w, err, http.StatusBadRequest)
		return
	}
	saved := make([]string, len(keys))
	for i, key := range keys {
		saved[i] = key.String()
	}
	writeJSON(w, http.StatusOK, PutRunsResponse{Saved: saved})
}
