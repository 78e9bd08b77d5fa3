// Package repro is a reproduction of "Improving Online Performance
// Diagnosis by the Use of Historical Performance Data" (Karavanic &
// Miller, SC 1999): a Paradyn-style Performance Consultant that performs
// online automated bottleneck search over a simulated message-passing
// application, augmented with search directives — prunes, priorities and
// thresholds — harvested from stored historical executions, and with
// resource mapping to carry directives across renamed resources.
//
// This top-level package is the public facade over the implementation
// packages:
//
//	internal/resource   resource hierarchies and foci
//	internal/metric     metrics and time histograms
//	internal/sim        the discrete-event parallel machine simulator
//	internal/app        synthetic workloads (Poisson A-D, ocean, tester)
//	internal/dyninst    dynamic instrumentation with a cost model
//	internal/consultant the Performance Consultant (hypotheses, SHG)
//	internal/core       directive harvesting, combination and mapping
//	internal/history    the multi-execution performance data store
//	internal/harness    full diagnosis sessions and the paper's tables
//
// A minimal diagnose-harvest-rediagnose cycle:
//
//	a, _ := repro.PoissonApp("C", repro.AppOptions{})
//	base, _ := repro.RunDiagnosis(a, repro.DefaultSessionConfig())
//	ds := repro.Harvest(base.Record, repro.HarvestAll())
//	cfg := repro.DefaultSessionConfig()
//	cfg.Directives = ds
//	a2, _ := repro.PoissonApp("C", repro.AppOptions{})
//	directed, _ := repro.RunDiagnosis(a2, cfg)
//	// directed.EndTime << base.EndTime
package repro

import (
	"io"

	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/dyninst"
	"repro/internal/harness"
	"repro/internal/history"
	"repro/internal/postmortem"
	"repro/internal/report"
	"repro/internal/resource"
)

// AppOptions parameterizes workload construction (node numbering,
// synthetic PIDs, compute scaling, iteration bounds).
type AppOptions = app.Options

// Application is a runnable synthetic parallel application.
type Application = app.App

// PoissonApp builds one of the paper's four MPI 2-D Poisson solver
// versions: "A" (1-D blocking), "B" (1-D non-blocking), "C" (2-D, 4
// processes) or "D" (the same code as C across 8 processes).
func PoissonApp(version string, opt AppOptions) (*Application, error) {
	return app.Poisson(version, opt)
}

// OceanApp builds the PVM-style ocean circulation model used in the
// paper's threshold study.
func OceanApp(opt AppOptions) (*Application, error) { return app.Ocean(opt) }

// TesterApp builds the CPU-bound example program of the paper's Figure 1.
func TesterApp(opt AppOptions) (*Application, error) { return app.Tester(opt) }

// SessionConfig configures one online diagnosis run.
type SessionConfig = harness.SessionConfig

// SessionResult carries everything observed in one diagnosis run.
type SessionResult = harness.SessionResult

// Bottleneck is one reported performance problem.
type Bottleneck = harness.Bottleneck

// DefaultSessionConfig returns the evaluation's standard parameters.
func DefaultSessionConfig() SessionConfig { return harness.DefaultSessionConfig() }

// RunDiagnosis executes one full online diagnosis: the application runs
// under simulated dynamic instrumentation while the Performance Consultant
// searches for bottlenecks, optionally guided by directives.
func RunDiagnosis(a *Application, cfg SessionConfig) (*SessionResult, error) {
	return harness.RunSession(a, cfg)
}

// SessionJob describes one independent diagnosis session for RunDiagnoses.
type SessionJob = harness.SessionJob

// RunDiagnoses executes independent diagnosis sessions across a bounded
// worker pool (workers <= 0 means GOMAXPROCS) and returns their results
// in input order. Each session's state is confined to its worker
// goroutine and the simulator is deterministic per seed, so results are
// identical for every worker count; failures are aggregated per job in a
// *harness.SchedulerError without disturbing the surviving sessions.
func RunDiagnoses(jobs []SessionJob, workers int) ([]*SessionResult, error) {
	return harness.RunSessions(jobs, workers)
}

// DirectiveSet is a harvest of search directives from historical runs.
type DirectiveSet = core.DirectiveSet

// HarvestOptions selects which directive kinds to extract.
type HarvestOptions = core.HarvestOptions

// Mapping declares two resource names from different executions
// equivalent.
type Mapping = core.Mapping

// RunRecord is the stored outcome of one execution.
type RunRecord = history.RunRecord

// Store is the multi-execution performance data store: a concurrency-
// safe indexed façade over a pluggable storage backend.
type Store = history.Store

// StoreBackend is the pluggable storage engine beneath a Store.
type StoreBackend = history.Backend

// NewStore opens (creating if needed) a filesystem-backed history store
// rooted at dir.
func NewStore(dir string) (*Store, error) { return history.NewStore(dir) }

// NewMemStore creates a history store over a fresh in-memory backend.
func NewMemStore() *Store { return history.NewMemStore() }

// NewStoreWith opens a history store over any storage backend.
func NewStoreWith(b StoreBackend) (*Store, error) { return history.NewStoreWith(b) }

// HarvestCache memoizes the directive pipeline (harvest, mapping,
// combination) over interned store records.
type HarvestCache = core.HarvestCache

// NewHarvestCache creates an empty harvest cache.
func NewHarvestCache() *HarvestCache { return core.NewHarvestCache() }

// HarvestAll enables every directive kind with default tuning.
func HarvestAll() HarvestOptions { return core.HarvestAll() }

// Harvest extracts a directive set from one historical run record.
func Harvest(rec *RunRecord, opt HarvestOptions) *DirectiveSet { return core.Harvest(rec, opt) }

// IntersectDirectives implements the paper's A∩B combination.
func IntersectDirectives(a, b *DirectiveSet) *DirectiveSet { return core.Combine(true, a, b) }

// UnionDirectives implements the paper's A∪B combination.
func UnionDirectives(a, b *DirectiveSet) *DirectiveSet { return core.Combine(false, a, b) }

// InferMappings proposes resource mappings between two executions'
// resource sets (per-hierarchy, by name similarity).
func InferMappings(from, to map[string][]string) []Mapping { return core.InferMappings(from, to) }

// ApplyMappings rewrites every resource name in a directive set.
func ApplyMappings(ds *DirectiveSet, maps []Mapping) (*DirectiveSet, error) {
	return core.ApplyMappings(ds, maps)
}

// ParseDirectives reads the directive text format (prune / prunepair /
// priority / threshold lines).
func ParseDirectives(r io.Reader) (*DirectiveSet, error) { return core.ParseDirectives(r) }

// WriteDirectives writes a directive set in the text format.
func WriteDirectives(w io.Writer, ds *DirectiveSet) error { return core.WriteDirectives(w, ds) }

// ParseMappings reads "map <from> <to>" lines (the paper's Figure 3
// format).
func ParseMappings(r io.Reader) ([]Mapping, error) { return core.ParseMappings(r) }

// RunDiff is the quantitative comparison of two executions' diagnoses.
type RunDiff = core.RunDiff

// CompareRuns diagnoses the difference between two stored executions,
// mapping run A's resource names into run B's namespace automatically.
func CompareRuns(a, b *RunRecord) (*RunDiff, error) { return core.CompareRuns(a, b) }

// MostSpecificBottlenecks returns a record's true pairs with no
// more-refined true pair beneath them — the well-defined problem areas a
// tuning effort should start from.
func MostSpecificBottlenecks(rec *RunRecord) []history.NodeResult {
	return core.MostSpecificBottlenecks(rec)
}

// TraceEvaluator tests Performance Consultant hypotheses postmortem over
// a recorded raw trace (the paper's Section 6 extension).
type TraceEvaluator = postmortem.Evaluator

// TraceRecorder aggregates an execution's activity intervals.
type TraceRecorder = postmortem.Recorder

// NewTraceRecorder creates an empty trace recorder; attach it to a
// simulator as an observer (or feed it intervals read from a trace file).
func NewTraceRecorder() *TraceRecorder { return postmortem.NewRecorder() }

// ReadTrace loads a line-JSON trace file into a recorder.
func ReadTrace(r io.Reader) (*TraceRecorder, error) { return postmortem.ReadTrace(r) }

// NewTraceEvaluator creates a postmortem evaluator over a recorded trace;
// pass elapsed <= 0 to use the trace's own extent.
func NewTraceEvaluator(space *resource.Space, procs []dyninst.ProcEntry, rec *TraceRecorder, elapsed float64) (*TraceEvaluator, error) {
	return postmortem.NewEvaluator(space, procs, rec, elapsed)
}

// GenerateReport renders a finished diagnosis as a self-contained HTML
// page (run summary, most specific bottlenecks, timeline, SHG).
func GenerateReport(res *SessionResult, maxBottlenecks int) (string, error) {
	rep, err := report.FromSession(res, maxBottlenecks)
	if err != nil {
		return "", err
	}
	return rep.HTML()
}
