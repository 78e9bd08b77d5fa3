package harness

import (
	"fmt"
	"runtime"
	"strings"
	"sync"

	"repro/internal/app"
)

// SessionJob describes one independent diagnosis session for the parallel
// scheduler. Exactly one of App and Build must be set: App hands the
// scheduler a ready application, Build constructs it inside the worker
// goroutine (useful when building the workload is itself part of the job,
// and it keeps every piece of per-session state confined to one
// goroutine).
type SessionJob struct {
	App   *app.App
	Build func() (*app.App, error)
	Cfg   SessionConfig

	// run is a test seam: when non-nil it replaces RunSession so the
	// scheduler's ordering, bounding and error behaviour can be tested
	// without paying for real diagnoses.
	run func(*app.App, SessionConfig) (*SessionResult, error)
}

// JobError ties one failed job to its position in the job slice.
type JobError struct {
	Index int
	Err   error
}

func (e *JobError) Error() string { return fmt.Sprintf("job %d: %v", e.Index, e.Err) }

// Unwrap exposes the underlying error to errors.Is / errors.As.
func (e *JobError) Unwrap() error { return e.Err }

// SchedulerError aggregates every failed job of one RunSessions call,
// ordered by job index. Jobs that succeeded are unaffected: their results
// are present in the results slice even when other jobs failed.
type SchedulerError struct {
	Jobs []*JobError
}

func (e *SchedulerError) Error() string {
	if len(e.Jobs) == 1 {
		return "harness: " + e.Jobs[0].Error()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "harness: %d jobs failed:", len(e.Jobs))
	for _, je := range e.Jobs {
		b.WriteString("\n\t" + je.Error())
	}
	return b.String()
}

// Unwrap exposes the individual job errors to errors.Is / errors.As.
func (e *SchedulerError) Unwrap() []error {
	out := make([]error, len(e.Jobs))
	for i, je := range e.Jobs {
		out[i] = je
	}
	return out
}

// RunSessions executes independent diagnosis sessions across a bounded
// worker pool and returns their results in input order.
//
// workers bounds the number of sessions in flight at once; values <= 0
// mean runtime.GOMAXPROCS(0). workers == 1 reproduces the sequential
// behaviour of calling RunSession in a loop. Because every session's
// state (simulator, RNG, instrumentation, consultant, observers) is
// confined to its worker goroutine and the simulator is deterministic per
// seed, results[i] is identical for every worker count.
//
// Failed jobs leave a nil entry in the results slice; the returned error
// is a *SchedulerError aggregating every failure (nil when all jobs
// succeeded).
func RunSessions(jobs []SessionJob, workers int) ([]*SessionResult, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	results := make([]*SessionResult, len(jobs))
	errs := make([]error, len(jobs))

	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				results[i], errs[i] = runOneJob(jobs[i])
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()

	var agg *SchedulerError
	for i, err := range errs {
		if err != nil {
			if agg == nil {
				agg = &SchedulerError{}
			}
			agg.Jobs = append(agg.Jobs, &JobError{Index: i, Err: err})
		}
	}
	if agg != nil {
		return results, agg
	}
	return results, nil
}

// runOneJob executes one job inside a worker goroutine.
func runOneJob(job SessionJob) (*SessionResult, error) {
	a := job.App
	if job.Build != nil {
		var err error
		a, err = job.Build()
		if err != nil {
			return nil, err
		}
	}
	if a == nil {
		return nil, fmt.Errorf("harness: job has neither App nor Build")
	}
	if job.run != nil {
		return job.run(a, job.Cfg)
	}
	return RunSession(a, job.Cfg)
}
