package server_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"repro/internal/app"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/history"
	"repro/internal/ingest"
	"repro/internal/server"
)

// newBenchServer stands up a server whose store holds the two poisson
// base runs (versions A and B) the harvest pipeline works from.
func newBenchServer(b *testing.B) (*client.Client, *httptest.Server) {
	b.Helper()
	cfg := harness.DefaultSessionConfig()
	cfg.RunID = "base"
	env := harness.NewEnv(nil)
	for _, v := range []struct {
		version string
		opt     app.Options
	}{
		{"A", app.Options{NodeOffset: 1, PidBase: 4000}},
		{"B", app.Options{NodeOffset: 5, PidBase: 4100}},
	} {
		res := runSession(b, "poisson", v.version, v.opt, cfg)
		if _, err := env.SaveResult(res); err != nil {
			b.Fatal(err)
		}
	}
	srv := server.New(env, server.Options{Sessions: 2})
	ts := httptest.NewServer(srv.Handler())
	return client.New(ts.URL), ts
}

// BenchmarkServerQuery measures a full HTTP round trip of an indexed
// cross-run query.
func BenchmarkServerQuery(b *testing.B) {
	cl, ts := newBenchServer(b)
	defer ts.Close()
	ctx := context.Background()
	p := client.QueryParams{App: "poisson", State: "true"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.QueryRaw(ctx, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServerHarvest measures the harvest → combine → map pipeline
// over HTTP; after the first request every stage is a cache hit, so
// this is the steady-state cost a directive-serving daemon pays.
func BenchmarkServerHarvest(b *testing.B) {
	cl, ts := newBenchServer(b)
	defer ts.Close()
	ctx := context.Background()
	req := &server.HarvestRequest{
		App:  "poisson",
		Runs: []string{"A:base"},
		Options: core.HarvestOptions{
			GeneralPrunes:  true,
			HistoricPrunes: true,
			Priorities:     true,
			Thresholds:     true,
		},
		Combine: "and",
		MapTo:   "B:base",
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.Harvest(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
}

// tap is a sender that keeps the samples a Reporter ships through it.
type tap struct {
	ingest.Sender
	samples []ingest.Sample
}

func (c *tap) IngestSamples(ctx context.Context, req *ingest.SamplesRequest) (*ingest.SamplesResponse, error) {
	c.samples = append(c.samples, req.Samples...)
	return c.Sender.IngestSamples(ctx, req)
}

// BenchmarkIngestStream is one op of the benchmark's stream workload per
// iteration, in one process: a whole mw stream over HTTP into a server on
// a durable store (-wal-sync always) — start with harvest from the two
// stored runs that sort last, as the benchmark's history does, the
// samples in 64-sample batches, the end marker that finalizes and saves.
// batch-µs and end-µs are the medians of one samples round trip and of
// the end round trip.
func BenchmarkIngestStream(b *testing.B) {
	st, err := history.OpenStoreDurable(b.TempDir(), history.DurableOptions{Create: true, WAL: true})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	srv := server.New(harness.NewEnv(st), server.Options{Sessions: 1, Ingest: ingest.ManagerOptions{EvalBudget: 24, QueueDepth: 32, HarvestSources: 2}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl := client.New(ts.URL)
	ctx := context.Background()
	defer srv.Shutdown(ctx)
	// Three streams before the clock starts: the one whose samples every
	// iteration resends, and the two that sort last as history.
	seed1 := &tap{Sender: cl}
	streamRun(b, seed1, "mw", "a-seed-1", 1, 20)
	streamRun(b, cl, "mw", "zz-hist-0", 101, 20)
	streamRun(b, cl, "mw", "zz-hist-1", 102, 20)
	samples := seed1.samples

	var batchUS, endUS []float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runID := fmt.Sprintf("s-%06d", i)
		start, err := cl.IngestStart(ctx, &ingest.StartRequest{App: "mw", RunID: runID, Harvest: true})
		if err != nil || start.SourceRuns != 2 || start.Directives == 0 {
			b.Fatalf("start: %+v, %v", start, err)
		}
		seq := 1
		for rest := samples; len(rest) > 0; seq++ {
			n := min(64, len(rest))
			t0 := time.Now()
			if _, err := cl.IngestSamples(ctx, &ingest.SamplesRequest{App: "mw", RunID: runID, Seq: seq, Samples: rest[:n]}); err != nil {
				b.Fatal(err)
			}
			batchUS = append(batchUS, float64(time.Since(t0))/1e3)
			rest = rest[n:]
		}
		t0 := time.Now()
		end, err := cl.IngestEnd(ctx, &ingest.EndRequest{App: "mw", RunID: runID, Seq: seq, Elapsed: 20})
		if err != nil || end.Samples != len(samples) || end.Saved == "" {
			b.Fatalf("end: %+v, %v", end, err)
		}
		endUS = append(endUS, float64(time.Since(t0))/1e3)
	}
	b.StopTimer()
	slices.Sort(batchUS)
	slices.Sort(endUS)
	b.ReportMetric(batchUS[len(batchUS)/2], "batch-µs")
	b.ReportMetric(endUS[len(endUS)/2], "end-µs")
	b.ReportMetric(float64(len(batchUS))/float64(b.N), "batches")
}
