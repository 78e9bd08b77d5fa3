package harness

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/app"
)

// stubJob builds a SessionJob whose session is replaced by the given stub
// via the scheduler's test seam, so scheduler behaviour can be tested
// without paying for real diagnoses.
func stubJob(run func() (*SessionResult, error)) SessionJob {
	return SessionJob{
		App: new(app.App),
		run: func(*app.App, SessionConfig) (*SessionResult, error) { return run() },
	}
}

var errInjected = errors.New("injected job failure")

// TestRunSessionsProperties drives the scheduler with random job counts,
// worker counts and injected per-job failures and asserts its contract:
// results come back in input order, every non-failed job's result is
// non-nil, a failing job never corrupts its neighbours, the aggregate
// error names exactly the failed jobs in index order, and the pool never
// runs more than `workers` sessions at once.
func TestRunSessionsProperties(t *testing.T) {
	prop := func(jobCount, workerCount uint8, failMask uint32) bool {
		nJobs := int(jobCount % 24)
		workers := int(workerCount%9) + 1 // 1..9

		var inFlight, highWater atomic.Int64
		jobs := make([]SessionJob, nJobs)
		for i := range jobs {
			i := i
			fails := failMask&(1<<uint(i%32)) != 0
			jobs[i] = stubJob(func() (*SessionResult, error) {
				cur := inFlight.Add(1)
				defer inFlight.Add(-1)
				for {
					hw := highWater.Load()
					if cur <= hw || highWater.CompareAndSwap(hw, cur) {
						break
					}
				}
				runtime.Gosched() // widen the overlap window
				if fails {
					return nil, fmt.Errorf("%w: job %d", errInjected, i)
				}
				// EndTime doubles as an identity marker so result order
				// can be verified against input order.
				return &SessionResult{EndTime: float64(i)}, nil
			})
		}

		results, err := RunSessions(jobs, workers)
		if len(results) != nJobs {
			t.Logf("results length %d, want %d", len(results), nJobs)
			return false
		}
		if hw := highWater.Load(); hw > int64(workers) {
			t.Logf("high-water mark %d exceeds workers %d", hw, workers)
			return false
		}
		var wantFailed []int
		for i := range jobs {
			if failMask&(1<<uint(i%32)) != 0 {
				wantFailed = append(wantFailed, i)
				if results[i] != nil {
					t.Logf("failed job %d has non-nil result", i)
					return false
				}
				continue
			}
			if results[i] == nil || results[i].EndTime != float64(i) {
				t.Logf("job %d: result corrupted or out of order: %+v", i, results[i])
				return false
			}
		}
		if len(wantFailed) == 0 {
			if err != nil {
				t.Logf("unexpected error: %v", err)
				return false
			}
			return true
		}
		var agg *SchedulerError
		if !errors.As(err, &agg) {
			t.Logf("error is %T, want *SchedulerError", err)
			return false
		}
		if !errors.Is(err, errInjected) {
			t.Logf("aggregate error does not wrap the injected failure")
			return false
		}
		if len(agg.Jobs) != len(wantFailed) {
			t.Logf("aggregate names %d jobs, want %d", len(agg.Jobs), len(wantFailed))
			return false
		}
		for i, je := range agg.Jobs {
			if je.Index != wantFailed[i] {
				t.Logf("aggregate job %d has index %d, want %d", i, je.Index, wantFailed[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestRunSessionsBoundsWorkers holds every session open on a barrier until
// `workers` of them are in flight, proving the pool really fans out to its
// bound (the property test above proves it never exceeds it).
func TestRunSessionsBoundsWorkers(t *testing.T) {
	const workers = 4
	const nJobs = 8
	var inFlight atomic.Int64
	reached := make(chan struct{})
	var once sync.Once
	jobs := make([]SessionJob, nJobs)
	for i := range jobs {
		jobs[i] = stubJob(func() (*SessionResult, error) {
			if inFlight.Add(1) == workers {
				once.Do(func() { close(reached) })
			}
			defer inFlight.Add(-1)
			// Hold until full fan-out (or give up and let the test fail
			// on the channel check below).
			select {
			case <-reached:
			case <-time.After(5 * time.Second):
			}
			return &SessionResult{}, nil
		})
	}
	done := make(chan error, 1)
	go func() {
		_, err := RunSessions(jobs, workers)
		done <- err
	}()
	select {
	case <-reached:
	case <-time.After(10 * time.Second):
		t.Fatal("pool never had `workers` sessions in flight at once")
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestRunSessionsBuildError routes workload-construction failures through
// the same per-job error path as session failures.
func TestRunSessionsBuildError(t *testing.T) {
	boom := errors.New("no such app")
	jobs := []SessionJob{
		{Build: func() (*app.App, error) { return app.Poisson("C", app.Options{}) }, Cfg: DefaultSessionConfig()},
		{Build: func() (*app.App, error) { return nil, boom }, Cfg: DefaultSessionConfig()},
		{Cfg: DefaultSessionConfig()}, // neither App nor Build
	}
	results, err := RunSessions(jobs, 2)
	if results[0] == nil {
		t.Error("healthy job lost its result")
	}
	var agg *SchedulerError
	if !errors.As(err, &agg) {
		t.Fatalf("err = %v, want *SchedulerError", err)
	}
	if len(agg.Jobs) != 2 || agg.Jobs[0].Index != 1 || agg.Jobs[1].Index != 2 {
		t.Fatalf("aggregate = %v, want failures for jobs 1 and 2", agg)
	}
	if !errors.Is(agg.Jobs[0], boom) {
		t.Errorf("build error not propagated: %v", agg.Jobs[0])
	}
}

// TestRunSessionsEmptyAndSingle covers the degenerate edges.
func TestRunSessionsEmptyAndSingle(t *testing.T) {
	if res, err := RunSessions(nil, 4); err != nil || len(res) != 0 {
		t.Fatalf("empty job list: res=%v err=%v", res, err)
	}
	jobs := []SessionJob{stubJob(func() (*SessionResult, error) {
		return &SessionResult{EndTime: 42}, nil
	})}
	// workers beyond the job count and workers <= 0 (GOMAXPROCS default)
	// both reduce to a working pool.
	for _, workers := range []int{8, 0, -3} {
		res, err := RunSessions(jobs, workers)
		if err != nil || len(res) != 1 || res[0].EndTime != 42 {
			t.Fatalf("workers=%d: res=%v err=%v", workers, res, err)
		}
	}
}

// TestConcurrentRunSessions runs N real diagnosis sessions on distinct
// apps simultaneously — without the scheduler — so `go test -race` gets to
// observe raw cross-session interleaving of sim, dyninst, consultant and
// history state. Any package-level mutable state shared between sessions
// would surface here as a race or as cross-talk in the results.
func TestConcurrentRunSessions(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full diagnoses")
	}
	type build struct {
		name string
		f    func() (*app.App, error)
	}
	builds := []build{
		{"poisson-A", func() (*app.App, error) { return app.Poisson("A", app.Options{NodeOffset: 1, PidBase: 4000}) }},
		{"poisson-C", func() (*app.App, error) { return app.Poisson("C", app.Options{}) }},
		{"tester", func() (*app.App, error) { return app.Tester(app.Options{}) }},
		{"ocean", func() (*app.App, error) { return app.Ocean(app.Options{}) }},
	}
	// Sequential reference results first.
	refs := make([]*SessionResult, len(builds))
	for i, bd := range builds {
		a, err := bd.f()
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultSessionConfig()
		cfg.RunID = "conc-" + bd.name
		refs[i], err = RunSession(a, cfg)
		if err != nil {
			t.Fatal(err)
		}
	}
	// Now the same four diagnoses at once, twice over.
	const rounds = 2
	var wg sync.WaitGroup
	got := make([]*SessionResult, rounds*len(builds))
	errs := make([]error, rounds*len(builds))
	for r := 0; r < rounds; r++ {
		for i, bd := range builds {
			wg.Add(1)
			go func(slot int, bd build) {
				defer wg.Done()
				a, err := bd.f()
				if err != nil {
					errs[slot] = err
					return
				}
				cfg := DefaultSessionConfig()
				cfg.RunID = "conc-" + bd.name
				got[slot], errs[slot] = RunSession(a, cfg)
			}(r*len(builds)+i, bd)
		}
	}
	wg.Wait()
	for slot, err := range errs {
		if err != nil {
			t.Fatalf("slot %d: %v", slot, err)
		}
	}
	for slot, res := range got {
		ref := refs[slot%len(builds)]
		if res.EndTime != ref.EndTime || res.PairsTested != ref.PairsTested ||
			len(res.Bottlenecks) != len(ref.Bottlenecks) {
			t.Errorf("slot %d (%s): concurrent run diverged from sequential: "+
				"end %.1f/%.1f pairs %d/%d bottlenecks %d/%d",
				slot, builds[slot%len(builds)].name,
				res.EndTime, ref.EndTime, res.PairsTested, ref.PairsTested,
				len(res.Bottlenecks), len(ref.Bottlenecks))
		}
		for i, b := range res.Bottlenecks {
			if ref.Bottlenecks[i] != b {
				t.Errorf("slot %d bottleneck %d = %+v, want %+v", slot, i, b, ref.Bottlenecks[i])
			}
		}
	}
}
