package loadgen

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/metric"
)

// ClassReport summarizes one op class of a finished run. Latencies are
// milliseconds from metric.LatencyHistogram quantiles (≤5% relative
// error, see that type's contract).
type ClassReport struct {
	Class string `json:"class"`
	// Ops counts completed requests (success or failure); Errors counts
	// hard failures; Unavailable counts 503s and breaker fast-fails —
	// load the server shed rather than served; Fenced counts 409s — a node
	// refusing a shard it lost to a newer epoch.
	Ops         uint64  `json:"ops"`
	Errors      uint64  `json:"errors,omitempty"`
	Unavailable uint64  `json:"unavailable,omitempty"`
	Fenced      uint64  `json:"fenced,omitempty"`
	P50Ms       float64 `json:"p50_ms"`
	P99Ms       float64 `json:"p99_ms"`
	P999Ms      float64 `json:"p999_ms"`
	MeanMs      float64 `json:"mean_ms"`
	MaxMs       float64 `json:"max_ms"`
	// OpsPerSec is this class's completed-op throughput over the
	// measured wall-clock window.
	OpsPerSec float64 `json:"ops_per_sec"`
}

// ServerDelta is the /statsz movement over the measured window —
// server-side truth the harness reads directly instead of scraping
// logs. Counters are after-minus-before; InFlightAtEnd is the gauge
// after the run drained (should be ~1: the final /statsz request
// itself).
type ServerDelta struct {
	OpCounts        map[string]uint64 `json:"op_counts"`
	InFlightAtEnd   int64             `json:"in_flight_at_end"`
	TotalSessions   uint64            `json:"total_sessions"`
	BackendFaults   uint64            `json:"backend_faults,omitempty"`
	WritesRejected  uint64            `json:"writes_rejected,omitempty"`
	BreakerOpens    uint64            `json:"breaker_opens,omitempty"`
	WALAppends      uint64            `json:"wal_appends,omitempty"`
	WALSyncs        uint64            `json:"wal_syncs,omitempty"`
	JournalHits     uint64            `json:"journal_hits,omitempty"`
	SessionsResumed uint64            `json:"sessions_resumed,omitempty"`
	// IngestStreams/IngestSamples/IngestRejected are the streaming
	// intake's movement: streams opened, samples accepted, batches
	// refused with backpressure.
	IngestStreams  uint64 `json:"ingest_streams,omitempty"`
	IngestSamples  uint64 `json:"ingest_samples,omitempty"`
	IngestRejected uint64 `json:"ingest_rejected,omitempty"`
}

// Verification is the post-run correctness sweep: what the harness
// proved about the store after traffic stopped.
type Verification struct {
	// AckedWrites is how many puts the server acknowledged;
	// ReadBackMissing/ReadBackMismatches count acknowledged writes the
	// post-run sweep could not find or found altered. Both must be zero
	// for a passing run.
	AckedWrites        int `json:"acked_writes"`
	ReadBackMissing    int `json:"read_back_missing"`
	ReadBackMismatches int `json:"read_back_mismatches"`
	// ReadBackFailedOver counts acknowledged writes the sweep found on
	// the follower replica instead of the primary — writes a promoted
	// shard took after its primary died. They are not losses.
	ReadBackFailedOver int `json:"read_back_failed_over,omitempty"`
	// FsckSeverity is pcfsck's grade of the quiesced store: 0 clean,
	// 1 residue, 2 corrupt, -1 not checked (external server).
	FsckSeverity int      `json:"fsck_severity"`
	FsckFindings []string `json:"fsck_findings,omitempty"`
	// FollowerRecords and FollowerFsckSeverity grade the follower
	// replica's store when the suite armed replication (severity -1 when
	// there was no follower). A cross-replica divergence — a shared key
	// whose bytes differ between the follower and the primary's fold —
	// raises the follower severity to 2.
	FollowerRecords      int `json:"follower_records,omitempty"`
	FollowerFsckSeverity int `json:"follower_fsck_severity"`
	// StoreRecords is the final record count; StoreHash a SHA-256 over
	// every record's canonical encoding in key order — two runs of the
	// same (suite, seed) produce the same hash.
	StoreRecords int    `json:"store_records"`
	StoreHash    string `json:"store_hash,omitempty"`
	// OpLogHash fingerprints the executed op sequence (see Op.String).
	OpLogHash string `json:"op_log_hash"`
}

// SuiteReport is one suite's entry in the load artifact.
type SuiteReport struct {
	Suite      string  `json:"suite"`
	Arrival    string  `json:"arrival"`
	RateTarget float64 `json:"rate_target,omitempty"`
	Workers    int     `json:"workers"`
	Seed       int64   `json:"seed"`
	KeyDist    string  `json:"key_dist"`
	Prefill    int     `json:"prefill"`
	WALSync    string  `json:"wal_sync"`
	Mix        string  `json:"mix"`
	FaultMix   string  `json:"fault_mix,omitempty"`
	// Replicas and Failover carry the suite's replication shape: the
	// armed follower count, and the scripted shard-kill (when any).
	Replicas int    `json:"replicas,omitempty"`
	Failover string `json:"failover,omitempty"`

	// WallSeconds is the measured window (first dispatch to last
	// completion); Ops/OpsPerSec the completed total and throughput.
	WallSeconds float64 `json:"wall_seconds"`
	Ops         uint64  `json:"ops"`
	Errors      uint64  `json:"errors"`
	Unavailable uint64  `json:"unavailable"`
	// Fenced counts answers that unwrap to client.ErrFenced. No suite
	// scripts the death of a whole primary, so none expects one.
	Fenced uint64 `json:"fenced"`
	// Stalls counts open-loop dispatches that found the in-flight cap
	// full and had to wait — arrivals the harness could not keep open.
	Stalls uint64 `json:"stalls,omitempty"`
	// ClientRetries counts idempotent-request retries the client layer
	// absorbed.
	ClientRetries uint64  `json:"client_retries,omitempty"`
	OpsPerSec     float64 `json:"ops_per_sec"`

	Classes []ClassReport `json:"classes"`
	Server  *ServerDelta  `json:"server,omitempty"`
	Verify  Verification  `json:"verify"`

	// OpLog is the executed op sequence; kept out of the JSON artifact
	// (the hash represents it) but exposed for the determinism tests.
	OpLog []string `json:"-"`
}

// Passed reports whether the run met the harness's correctness bar:
// traffic actually flowed, no node refused a write as fenced, nothing
// acknowledged was lost or altered, and the quiesced store is fsck-clean
// (severity 0; -1 external skips the check).
func (r *SuiteReport) Passed() error {
	if r.Ops == 0 || r.OpsPerSec <= 0 {
		return fmt.Errorf("loadgen: suite %s: no throughput (%d ops)", r.Suite, r.Ops)
	}
	if r.Fenced > 0 {
		return fmt.Errorf("loadgen: suite %s: %d requests answered 409 fenced: a node was fenced out of a shard it should still own", r.Suite, r.Fenced)
	}
	if r.Verify.ReadBackMissing > 0 || r.Verify.ReadBackMismatches > 0 {
		return fmt.Errorf("loadgen: suite %s: acked-write loss: %d missing, %d mismatched of %d acked",
			r.Suite, r.Verify.ReadBackMissing, r.Verify.ReadBackMismatches, r.Verify.AckedWrites)
	}
	if r.Verify.FsckSeverity > 0 {
		return fmt.Errorf("loadgen: suite %s: pcfsck severity %d: %v",
			r.Suite, r.Verify.FsckSeverity, r.Verify.FsckFindings)
	}
	if r.Verify.FollowerFsckSeverity > 0 {
		return fmt.Errorf("loadgen: suite %s: follower replica pcfsck severity %d: %v",
			r.Suite, r.Verify.FollowerFsckSeverity, r.Verify.FsckFindings)
	}
	return nil
}

// classReport folds one class's histogram and counters into the report
// row.
func classReport(class string, h *metric.LatencyHistogram, ops, errs, unavail, fenced uint64, wall float64) ClassReport {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	cr := ClassReport{
		Class:       class,
		Ops:         ops,
		Errors:      errs,
		Unavailable: unavail,
		Fenced:      fenced,
		P50Ms:       ms(h.Quantile(0.50)),
		P99Ms:       ms(h.Quantile(0.99)),
		P999Ms:      ms(h.Quantile(0.999)),
		MeanMs:      ms(h.Mean()),
		MaxMs:       ms(h.Max()),
	}
	if wall > 0 {
		cr.OpsPerSec = float64(ops) / wall
	}
	return cr
}

// Artifact is the committed load document (LOAD_PR6.json), one entry
// per suite, in the spirit of the BENCH_PR*.json summaries.
type Artifact struct {
	PR     int           `json:"pr,omitempty"`
	GoOS   string        `json:"goos"`
	GoArch string        `json:"goarch"`
	Suites []SuiteReport `json:"suites"`
}

// NewArtifact stamps an artifact for the current platform.
func NewArtifact(pr int) *Artifact {
	return &Artifact{PR: pr, GoOS: runtime.GOOS, GoArch: runtime.GOARCH}
}

// WriteFile writes the artifact as indented JSON with a trailing
// newline (the repo's canonical artifact encoding).
func (a *Artifact) WriteFile(path string) error {
	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
