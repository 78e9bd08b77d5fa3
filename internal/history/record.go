// Package history implements the multi-execution performance data store
// the paper's directive harvesting draws on: per-run records of the
// program's resource hierarchies, the Performance Consultant's Search
// History Graph results, and a raw per-resource usage summary, saved as
// JSON and reloadable across tool sessions.
package history

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"unicode/utf8"

	"repro/internal/consultant"
	"repro/internal/resource"
)

// NodeResult is the serializable outcome of one (hypothesis : focus) pair
// from a Performance Consultant run.
type NodeResult struct {
	Hyp         string  `json:"hyp"`
	Focus       string  `json:"focus"`
	State       string  `json:"state"` // pending|testing|true|false|pruned
	Value       float64 `json:"value"`
	Threshold   float64 `json:"threshold"`
	ConcludedAt float64 `json:"concluded_at"`
	Priority    string  `json:"priority"`
	Persistent  bool    `json:"persistent,omitempty"`
}

// RunRecord captures everything harvested from one program execution.
type RunRecord struct {
	App     string `json:"app"`
	Version string `json:"version"`
	RunID   string `json:"run_id"`

	// Duration is the diagnosed execution's virtual length in seconds.
	Duration float64 `json:"duration"`
	// Resources lists every resource path per hierarchy name.
	Resources map[string][]string `json:"resources"`
	// ProcNodes maps process name to the machine node it ran on.
	ProcNodes map[string]string `json:"proc_nodes"`
	// Results holds the SHG outcomes.
	Results []NodeResult `json:"results"`
	// Usage maps resource path to the fraction of total execution time
	// attributed to it (raw monitoring data, independent of the SHG).
	Usage map[string]float64 `json:"usage"`

	PairsTested int `json:"pairs_tested"`
	TrueCount   int `json:"true_count"`
}

// ResultShape and RecordShape are the member tables of a result and a
// record: the canonical encoding of FORMATS.md, and its strict decode.
var (
	ResultShape = NewShape(
		Field("hyp", func(r *NodeResult) *string { return &r.Hyp }, Label),
		Field("focus", func(r *NodeResult) *string { return &r.Focus }, String),
		Field("state", func(r *NodeResult) *string { return &r.State }, Label),
		Field("value", func(r *NodeResult) *float64 { return &r.Value }, Float),
		Field("threshold", func(r *NodeResult) *float64 { return &r.Threshold }, Float),
		Field("concluded_at", func(r *NodeResult) *float64 { return &r.ConcludedAt }, Float),
		Field("priority", func(r *NodeResult) *string { return &r.Priority }, Label),
		OmitEmpty("persistent", func(r *NodeResult) *bool { return &r.Persistent }, Bool),
	)
	RecordShape = NewShape(
		Field("app", func(r *RunRecord) *string { return &r.App }, String),
		Field("version", func(r *RunRecord) *string { return &r.Version }, String),
		Field("run_id", func(r *RunRecord) *string { return &r.RunID }, String),
		Field("duration", func(r *RunRecord) *float64 { return &r.Duration }, Float),
		Field("resources", func(r *RunRecord) *map[string][]string { return &r.Resources }, MapOf(ArrayOf(String))),
		Field("proc_nodes", func(r *RunRecord) *map[string]string { return &r.ProcNodes }, MapOf(String)),
		Field("results", func(r *RunRecord) *[]NodeResult { return &r.Results }, ArrayOf(ResultShape.Value())),
		Field("usage", func(r *RunRecord) *map[string]float64 { return &r.Usage }, MapOf(Float)),
		Field("pairs_tested", func(r *RunRecord) *int { return &r.PairsTested }, Int),
		Field("true_count", func(r *RunRecord) *int { return &r.TrueCount }, Int),
	).SizedBy((*RunRecord).EncodedSizeHint)
)

// FromRun assembles the record of a finished (or stopped) search — an
// online session's or a trace diagnosis's — from its Search History
// Graph and the number of pairs it instrumented. The record keeps the
// usage and procNodes maps it is given.
func FromRun(appName, version, runID string, space *resource.Space,
	shg *consultant.SHG, tested int, usage map[string]float64, procNodes map[string]string,
	duration float64) *RunRecord {

	rec := &RunRecord{
		App:         appName,
		Version:     version,
		RunID:       runID,
		Duration:    duration,
		Resources:   make(map[string][]string),
		ProcNodes:   procNodes,
		Usage:       usage,
		PairsTested: tested,
	}
	for _, h := range space.Hierarchies() {
		rec.Resources[h.Name()] = h.Paths()
	}
	for _, n := range shg.Nodes() {
		if n == shg.Root() {
			continue
		}
		rec.Results = append(rec.Results, NodeResult{
			Hyp:         n.Hyp.Name,
			Focus:       n.FocusName(),
			State:       n.State.String(),
			Value:       n.Value,
			Threshold:   n.Threshold,
			ConcludedAt: n.ConcludedAt,
			Priority:    n.Priority.String(),
			Persistent:  n.Persistent,
		})
		if n.State == consultant.StateTrue {
			rec.TrueCount++
		}
	}
	return rec
}

// Validate checks the record for internal consistency. Every string must
// be valid UTF-8: the JSON encoder rewrites a stray byte to U+FFFD, so a
// record holding one would be stored, keyed and replicated under a name
// its own file bytes no longer spell. Every float must be finite: JSON
// has no spelling for NaN or an infinity, and Validate is the one gate
// in front of the encoder, which has no error to return.
func (r *RunRecord) Validate() error {
	if r.App == "" {
		return fmt.Errorf("history: record missing app name")
	}
	if r.RunID == "" {
		return fmt.Errorf("history: record missing run id")
	}
	if err := r.validUTF8(); err != nil {
		return err
	}
	if err := r.CheckFinite(); err != nil {
		return err
	}
	trues := 0
	for i, nr := range r.Results {
		switch nr.State {
		case "pending", "testing", "true", "false", "pruned":
		default:
			return fmt.Errorf("history: result %d has unknown state %q", i, nr.State)
		}
		if nr.State == "true" {
			trues++
		}
	}
	if trues != r.TrueCount {
		return fmt.Errorf("history: TrueCount=%d but %d true results", r.TrueCount, trues)
	}
	return nil
}

// validUTF8 names the first string of the record that is not valid UTF-8.
func (r *RunRecord) validUTF8() error {
	bad := func(what, s string) error {
		return fmt.Errorf("history: %s %q is not valid UTF-8", what, s)
	}
	switch {
	case !utf8.ValidString(r.App):
		return bad("app", r.App)
	case !utf8.ValidString(r.Version):
		return bad("version", r.Version)
	case !utf8.ValidString(r.RunID):
		return bad("run id", r.RunID)
	}
	for h, paths := range r.Resources {
		if !utf8.ValidString(h) {
			return bad("hierarchy name", h)
		}
		for _, p := range paths {
			if !utf8.ValidString(p) {
				return bad("resource path", p)
			}
		}
	}
	for proc, node := range r.ProcNodes {
		if !utf8.ValidString(proc) {
			return bad("process name", proc)
		}
		if !utf8.ValidString(node) {
			return bad("machine node", node)
		}
	}
	for i, nr := range r.Results {
		// State is held to its five spellings by Validate itself.
		for _, s := range [...]string{nr.Hyp, nr.Focus, nr.Priority} {
			if !utf8.ValidString(s) {
				return bad(fmt.Sprintf("result %d field", i), s)
			}
		}
	}
	for path := range r.Usage {
		if !utf8.ValidString(path) {
			return bad("usage path", path)
		}
	}
	return nil
}

// finite reports whether f is neither NaN nor an infinity.
func finite(f float64) bool { return f-f == 0 }

// CheckFinite names the result's first float that is NaN or infinite.
func (nr *NodeResult) CheckFinite() error {
	switch {
	case !finite(nr.Value):
		return fmt.Errorf("value is %v", nr.Value)
	case !finite(nr.Threshold):
		return fmt.Errorf("threshold is %v", nr.Threshold)
	case !finite(nr.ConcludedAt):
		return fmt.Errorf("concluded_at is %v", nr.ConcludedAt)
	}
	return nil
}

// CheckFinite names the record's first float that is NaN or infinite —
// the one thing that keeps a record from having a JSON encoding.
func (r *RunRecord) CheckFinite() error {
	if !finite(r.Duration) {
		return fmt.Errorf("history: duration is %v", r.Duration)
	}
	for i := range r.Results {
		if err := r.Results[i].CheckFinite(); err != nil {
			return fmt.Errorf("history: result %d: %w", i, err)
		}
	}
	for path, v := range r.Usage {
		if !finite(v) {
			return fmt.Errorf("history: usage of %q is %v", path, v)
		}
	}
	return nil
}

// clone returns a copy of r that shares no map or slice with it, and is
// reflect.DeepEqual to what decoding r's own encoding yields for every
// record Validate accepts: a nil map or slice stays nil and an empty one
// stays empty (maps.Clone and slices.Clone keep both). The index holds
// clones, so a caller that keeps mutating the record it saved cannot
// reach the store's copy. NodeResult holds only scalars and strings; a
// field added to either struct that is a map, slice or pointer must be
// copied here (TestCloneCoversEveryField fails until it is).
func (r *RunRecord) clone() *RunRecord {
	c := *r
	c.Resources = maps.Clone(r.Resources)
	for h, paths := range c.Resources {
		c.Resources[h] = slices.Clone(paths)
	}
	c.ProcNodes = maps.Clone(r.ProcNodes)
	c.Results = slices.Clone(r.Results)
	c.Usage = maps.Clone(r.Usage)
	return &c
}

// TrueResults returns the results concluded true, by conclusion time.
func (r *RunRecord) TrueResults() []NodeResult {
	var out []NodeResult
	for _, nr := range r.Results {
		if nr.State == "true" {
			out = append(out, nr)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].ConcludedAt < out[j].ConcludedAt })
	return out
}

// FalseResults returns the results concluded false.
func (r *RunRecord) FalseResults() []NodeResult {
	var out []NodeResult
	for _, nr := range r.Results {
		if nr.State == "false" {
			out = append(out, nr)
		}
	}
	return out
}

// MachineRedundant reports whether processes and machine nodes map
// one-to-one (the MPI-1 static process model), making the Machine
// hierarchy redundant with the Process hierarchy.
func (r *RunRecord) MachineRedundant() bool {
	if len(r.ProcNodes) == 0 {
		return false
	}
	seen := make(map[string]int)
	for _, node := range r.ProcNodes {
		seen[node]++
		if seen[node] > 1 {
			return false
		}
	}
	return true
}
