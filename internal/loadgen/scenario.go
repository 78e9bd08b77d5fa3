// Package loadgen is the sustained-traffic load harness behind cmd/pcload:
// it drives a live pcd diagnosis service with open-loop (Poisson-arrival)
// or closed-loop traffic described by a declarative scenario file —
// workload mix × key distribution × fault mix × WAL sync policy × store
// size — under a fixed RNG seed, records per-op-class latency into
// metric.LatencyHistogram, and verifies correctness after the run (a
// pcfsck pass must come back clean and a read-back sweep must match every
// acknowledged write). See FORMATS.md "Load scenario suites".
package loadgen

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/history"
)

// OpClasses are the request classes a scenario mix may weight, in
// report order: store reads and writes, batch writes, cross-run
// queries, run comparisons, directive harvests, gated diagnosis
// sessions, and streamed-ingestion runs (start + sample batches + end
// through the live intake).
var OpClasses = []string{"get", "put", "putbatch", "query", "compare", "harvest", "diagnose", "stream"}

// Scenario is one declarative load suite (one suites/*.toml file).
type Scenario struct {
	// Name labels the suite in reports; defaults to the file's base name.
	Name string
	// Duration is the measured load phase's wall-clock length.
	Duration time.Duration
	// Arrival selects the traffic model: "open" issues ops at seeded
	// Poisson arrival times regardless of completions (the rate the
	// clients impose); "closed" runs Workers request loops back to back
	// (the rate the server sustains).
	Arrival string
	// Rate is the open-loop target arrival rate in ops/second.
	Rate float64
	// Workers bounds concurrency: the loop count in closed mode, the
	// in-flight cap in open mode (dispatch past it stalls and is
	// counted). <= 0 means 8.
	Workers int
	// Think pauses each closed-loop worker between ops.
	Think time.Duration
	// Seed fixes every random choice — arrival times, op classes, keys,
	// record contents — so a (suite, seed) pair replays the same op
	// sequence run after run.
	Seed int64
	// KeyDist picks how read-class ops choose among the Prefill records:
	// "uniform", or "zipf" (hotkey skew with parameters ZipfS/ZipfV).
	KeyDist string
	ZipfS   float64
	ZipfV   float64
	// Prefill is the store size: how many synthetic records are stored
	// before the measured phase begins (also the read key space).
	Prefill int
	// WALSync is the store's write-ahead-journal fsync policy for
	// self-hosted runs: "always", "interval", or "none".
	WALSync string
	// Shards lays the self-hosted store out as N consistent-hash shards
	// (0 = a single store). Ignored against an external -server.
	Shards int
	// DiagnoseMaxTime bounds each diagnosis session in virtual seconds
	// (<= 0 means 2000 — small enough for sustained traffic).
	DiagnoseMaxTime float64
	// BreakerCooldown tunes the served pcd's degraded-mode probe
	// interval; load runs want a short one so a fault burst heals within
	// the run (0 means the server default).
	BreakerCooldown time.Duration
	// Replicas arms replication on the self-hosted pcd: the node runs as
	// `pcd -replicas N` (writes gate on follower acks) and the harness
	// runs one `pcd -follow` node alongside it. Ignored against an
	// external -server.
	Replicas int
	// KillAt, when positive, fails shard KillShard's backend that far
	// into the measured phase — the shard-primary death the failover
	// seam exists for. Requires Replicas > 0 and a sharded layout.
	// Promote lets the follower take the dead shard's keyspace for
	// writes; without it the failover serves reads only.
	KillAt    time.Duration
	KillShard int
	Promote   bool
	// AutoFailover runs both nodes as `pcd -auto-failover`: the kill is
	// injected and NOTHING else is scripted. As in pcd, that arms
	// write-path promotion too (Promote is implied): the first write to
	// find the shard dead hands its keyspace to the follower, and the
	// detector covers a shard no write is hitting. Requires Replicas > 0.
	// LeaseTTL is -lease-ttl on both nodes (0 = 1s, load runs want a
	// short fuse).
	AutoFailover bool
	LeaseTTL     time.Duration
	// Mix weights the op classes; weights are relative, not
	// probabilities. Classes absent from the file get weight 0.
	Mix map[string]float64
	// Faults configures seeded fault injection on the served store's
	// backend (zero rates mean a clean backend).
	Faults history.FaultConfig
}

// Validate checks the scenario for internal consistency, applying
// defaults where the file left fields unset.
func (s *Scenario) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("loadgen: scenario has no name")
	}
	if s.Duration <= 0 {
		return fmt.Errorf("loadgen: suite %s: duration must be positive", s.Name)
	}
	switch s.Arrival {
	case "open":
		if s.Rate <= 0 {
			return fmt.Errorf("loadgen: suite %s: open-loop arrival needs rate > 0", s.Name)
		}
	case "closed":
	default:
		return fmt.Errorf("loadgen: suite %s: arrival must be \"open\" or \"closed\", got %q", s.Name, s.Arrival)
	}
	if s.Workers <= 0 {
		s.Workers = 8
	}
	switch s.KeyDist {
	case "", "uniform":
		s.KeyDist = "uniform"
	case "zipf":
		// rand.NewZipf requires s > 1 and v >= 1.
		if s.ZipfS <= 1 {
			s.ZipfS = 1.2
		}
		if s.ZipfV < 1 {
			s.ZipfV = 1
		}
	default:
		return fmt.Errorf("loadgen: suite %s: key-dist must be \"uniform\" or \"zipf\", got %q", s.Name, s.KeyDist)
	}
	if s.Prefill <= 0 {
		s.Prefill = 16
	}
	if s.WALSync == "" {
		s.WALSync = "always"
	}
	if _, err := history.ParseSyncPolicy(s.WALSync); err != nil {
		return fmt.Errorf("loadgen: suite %s: %w", s.Name, err)
	}
	if s.Shards < 0 || s.Shards > 99 {
		return fmt.Errorf("loadgen: suite %s: shards %d outside [0,99]", s.Name, s.Shards)
	}
	if s.DiagnoseMaxTime <= 0 {
		s.DiagnoseMaxTime = 2000
	}
	if s.Replicas < 0 {
		return fmt.Errorf("loadgen: suite %s: replicas %d is negative", s.Name, s.Replicas)
	}
	if s.KillAt > 0 {
		if s.Replicas <= 0 {
			return fmt.Errorf("loadgen: suite %s: kill-at needs replicas > 0 (no follower, nothing to fail over to)", s.Name)
		}
		if s.Shards <= 0 {
			return fmt.Errorf("loadgen: suite %s: kill-at needs a sharded layout (shards >= 1)", s.Name)
		}
		if s.KillShard < 0 || s.KillShard >= s.Shards {
			return fmt.Errorf("loadgen: suite %s: kill-shard %d outside [0,%d)", s.Name, s.KillShard, s.Shards)
		}
	}
	if s.AutoFailover {
		if s.Replicas <= 0 {
			return fmt.Errorf("loadgen: suite %s: auto-failover needs replicas > 0", s.Name)
		}
		if s.LeaseTTL <= 0 {
			s.LeaseTTL = time.Second
		}
	} else if s.LeaseTTL != 0 {
		return fmt.Errorf("loadgen: suite %s: lease-ttl needs auto-failover = true", s.Name)
	}
	total := 0.0
	for class, w := range s.Mix {
		if !validClass(class) {
			return fmt.Errorf("loadgen: suite %s: unknown op class %q in [mix] (want %s)",
				s.Name, class, strings.Join(OpClasses, ", "))
		}
		if w < 0 {
			return fmt.Errorf("loadgen: suite %s: negative weight for %q", s.Name, class)
		}
		total += w
	}
	if total <= 0 {
		return fmt.Errorf("loadgen: suite %s: [mix] has no positive weights", s.Name)
	}
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"err-rate", s.Faults.ErrRate},
		{"torn-rate", s.Faults.TornWriteRate},
		{"enospc-rate", s.Faults.ENOSPCRate},
	} {
		if r.v < 0 || r.v > 1 {
			return fmt.Errorf("loadgen: suite %s: fault %s %v outside [0,1]", s.Name, r.name, r.v)
		}
	}
	return nil
}

func validClass(class string) bool {
	for _, c := range OpClasses {
		if c == class {
			return true
		}
	}
	return false
}

// MixClasses returns the classes with positive weight, in OpClasses
// order — the deterministic iteration order the generator draws from.
func (s *Scenario) MixClasses() []string {
	var out []string
	for _, c := range OpClasses {
		if s.Mix[c] > 0 {
			out = append(out, c)
		}
	}
	return out
}

// LoadScenario reads and validates one scenario file. The suite name
// defaults to the file name without directory or extension.
func LoadScenario(path string) (*Scenario, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("loadgen: %w", err)
	}
	defer f.Close()
	base := path
	if i := strings.LastIndexByte(base, '/'); i >= 0 {
		base = base[i+1:]
	}
	base = strings.TrimSuffix(base, ".toml")
	sc, err := ParseScenario(f, base)
	if err != nil {
		return nil, fmt.Errorf("loadgen: %s: %w", path, err)
	}
	return sc, nil
}

// ParseScenario parses the scenario file format: a TOML subset of
// [section] headers and key = value lines, with #-comments. Sections are
// [suite] (scalar settings), [mix] (op-class weights), and [faults]
// (injection rates). Unknown sections and keys are errors — a typo in a
// load scenario must not silently run a different experiment.
func ParseScenario(r io.Reader, defaultName string) (*Scenario, error) {
	sc := &Scenario{Name: defaultName, Mix: map[string]float64{}}
	section := "suite"
	seen := map[string]bool{}
	scanner := bufio.NewScanner(r)
	line := 0
	for scanner.Scan() {
		line++
		text := scanner.Text()
		if i := strings.IndexByte(text, '#'); i >= 0 {
			text = text[:i]
		}
		text = strings.TrimSpace(text)
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "[") {
			if !strings.HasSuffix(text, "]") {
				return nil, fmt.Errorf("line %d: malformed section header %q", line, text)
			}
			section = strings.TrimSpace(text[1 : len(text)-1])
			switch section {
			case "suite", "mix", "faults":
			default:
				return nil, fmt.Errorf("line %d: unknown section [%s] (want suite, mix, or faults)", line, section)
			}
			continue
		}
		key, value, ok := strings.Cut(text, "=")
		if !ok {
			return nil, fmt.Errorf("line %d: want key = value, got %q", line, text)
		}
		key = strings.TrimSpace(key)
		value = strings.TrimSpace(value)
		full := section + "." + key
		if seen[full] {
			return nil, fmt.Errorf("line %d: duplicate key %s", line, full)
		}
		seen[full] = true
		if err := sc.set(section, key, value); err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
	}
	if err := scanner.Err(); err != nil {
		return nil, err
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return sc, nil
}

// set applies one key = value assignment.
func (s *Scenario) set(section, key, value string) error {
	switch section {
	case "mix":
		w, err := parseFloat(value)
		if err != nil {
			return fmt.Errorf("mix.%s: %w", key, err)
		}
		s.Mix[key] = w
		return nil
	case "faults":
		switch key {
		case "seed":
			n, err := parseInt(value)
			s.Faults.Seed = n
			return err
		case "err-rate":
			f, err := parseFloat(value)
			s.Faults.ErrRate = f
			return err
		case "torn-rate":
			f, err := parseFloat(value)
			s.Faults.TornWriteRate = f
			return err
		case "enospc-rate":
			f, err := parseFloat(value)
			s.Faults.ENOSPCRate = f
			return err
		case "latency":
			d, err := parseDuration(value)
			s.Faults.Latency = d
			return err
		}
		return fmt.Errorf("unknown key faults.%s", key)
	case "suite":
		switch key {
		case "name":
			v, err := parseString(value)
			if err == nil && v == "" {
				return fmt.Errorf("suite.name is empty")
			}
			s.Name = v
			return err
		case "duration":
			d, err := parseDuration(value)
			s.Duration = d
			return err
		case "arrival":
			v, err := parseString(value)
			s.Arrival = v
			return err
		case "rate":
			f, err := parseFloat(value)
			s.Rate = f
			return err
		case "workers":
			n, err := parseInt(value)
			s.Workers = int(n)
			return err
		case "think":
			d, err := parseDuration(value)
			s.Think = d
			return err
		case "seed":
			n, err := parseInt(value)
			s.Seed = n
			return err
		case "key-dist":
			v, err := parseString(value)
			s.KeyDist = v
			return err
		case "zipf-s":
			f, err := parseFloat(value)
			s.ZipfS = f
			return err
		case "zipf-v":
			f, err := parseFloat(value)
			s.ZipfV = f
			return err
		case "prefill":
			n, err := parseInt(value)
			s.Prefill = int(n)
			return err
		case "wal-sync":
			v, err := parseString(value)
			s.WALSync = v
			return err
		case "shards":
			n, err := parseInt(value)
			s.Shards = int(n)
			return err
		case "diagnose-max-time":
			f, err := parseFloat(value)
			s.DiagnoseMaxTime = f
			return err
		case "breaker-cooldown":
			d, err := parseDuration(value)
			s.BreakerCooldown = d
			return err
		case "replicas":
			n, err := parseInt(value)
			s.Replicas = int(n)
			return err
		case "kill-at":
			d, err := parseDuration(value)
			s.KillAt = d
			return err
		case "kill-shard":
			n, err := parseInt(value)
			s.KillShard = int(n)
			return err
		case "promote":
			b, err := parseBool(value)
			s.Promote = b
			return err
		case "auto-failover":
			b, err := parseBool(value)
			s.AutoFailover = b
			return err
		case "lease-ttl":
			d, err := parseDuration(value)
			s.LeaseTTL = d
			return err
		}
		return fmt.Errorf("unknown key suite.%s", key)
	}
	return fmt.Errorf("unknown section %q", section)
}

func parseString(value string) (string, error) {
	if len(value) >= 2 && value[0] == '"' && value[len(value)-1] == '"' {
		return strconv.Unquote(value)
	}
	return "", fmt.Errorf("want a quoted string, got %s", value)
}

func parseBool(value string) (bool, error) {
	switch value {
	case "true":
		return true, nil
	case "false":
		return false, nil
	}
	return false, fmt.Errorf("want true or false, got %s", value)
}

func parseFloat(value string) (float64, error) {
	f, err := strconv.ParseFloat(value, 64)
	if err != nil {
		return 0, fmt.Errorf("want a number, got %s", value)
	}
	return f, nil
}

func parseInt(value string) (int64, error) {
	n, err := strconv.ParseInt(value, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("want an integer, got %s", value)
	}
	return n, nil
}

func parseDuration(value string) (time.Duration, error) {
	v, err := parseString(value)
	if err != nil {
		return 0, err
	}
	d, err := time.ParseDuration(v)
	if err != nil {
		return 0, err
	}
	if d < 0 {
		return 0, fmt.Errorf("negative duration %s", v)
	}
	return d, nil
}

// MixString renders the positive mix weights compactly for reports,
// e.g. "get:5 put:2 diagnose:0.5".
func (s *Scenario) MixString() string {
	var parts []string
	for _, c := range s.MixClasses() {
		parts = append(parts, fmt.Sprintf("%s:%s", c, strconv.FormatFloat(s.Mix[c], 'g', -1, 64)))
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
}
