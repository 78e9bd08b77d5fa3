// Package dyninst simulates Paradyn's dynamic instrumentation: measurement
// probes for (metric : focus) pairs are inserted into and deleted from a
// running (simulated) application. Each probe accumulates matching
// activity intervals from its insertion point onward, perturbs the
// application's compute phases while active, and contributes to a global
// instrumentation cost that the Performance Consultant uses to throttle
// its search.
package dyninst

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/metric"
	"repro/internal/resource"
	"repro/internal/sim"
)

// Config holds instrumentation timing and cost parameters.
type Config struct {
	// InsertLatency is the delay between an instrumentation request and
	// the probe beginning to collect data (virtual seconds).
	InsertLatency float64
	// CostPerProcProbe is the fractional compute slowdown one probe adds
	// to each process it covers (e.g. 0.004 = 0.4%).
	CostPerProcProbe float64
	// SyncConstrainedCostFactor multiplies the cost of probes whose focus
	// constrains the SyncObject hierarchy: tag-predicated instrumentation
	// must wrap every message operation, making it far more intrusive
	// than plain timers.
	SyncConstrainedCostFactor float64
	// BinWidth is the probe time-histogram bin width.
	BinWidth float64
	// MaxHistogramBins bounds each probe's histogram memory: when a run
	// outgrows it, the histogram folds (adjacent bins merge, the width
	// doubles), as Paradyn's dataManager did. 0 keeps the default.
	MaxHistogramBins int
}

// DefaultConfig returns instrumentation parameters in the spirit of the
// Paradyn implementation: sub-second insertion, sub-percent per-probe
// perturbation.
func DefaultConfig() Config {
	return Config{
		InsertLatency:             0.5,
		CostPerProcProbe:          0.015,
		SyncConstrainedCostFactor: 3,
		BinWidth:                  0.5,
		MaxHistogramBins:          2048,
	}
}

// ProcEntry describes one application process the manager instruments.
type ProcEntry struct {
	Name string
	Node string
}

// Probe is one active or historical (metric : focus) measurement.
type Probe struct {
	id     int
	met    metric.ID
	focus  resource.Focus
	hist   *metric.TimeHistogram
	events float64 // accumulated event count for rate metrics

	requestedAt float64
	activeAt    float64
	removed     bool
	removedAt   float64

	width    int     // number of processes covered
	procCost float64 // per-covered-process cost fraction
	matcher  matcher
}

// Removed reports whether the probe has been deleted.
func (p *Probe) Removed() bool { return p.removed }

// ObservedWindow returns how many seconds of data the probe has collected
// as of virtual time now.
func (p *Probe) ObservedWindow(now float64) float64 {
	end := now
	if p.removed && p.removedAt < end {
		end = p.removedAt
	}
	w := end - p.activeAt
	if w < 0 {
		return 0
	}
	return w
}

// Value returns the probe's normalized metric value as of now: for
// normalized metrics, accumulated seconds divided by (window x width),
// i.e. the fraction of covered execution time; for event metrics, events
// per second per process.
func (p *Probe) Value(now float64) float64 {
	w := p.ObservedWindow(now)
	if w <= 0 || p.width == 0 {
		return 0
	}
	info, _ := metric.Lookup(p.met)
	if info.Normalized {
		return p.hist.Total() / (w * float64(p.width))
	}
	return p.events / (w * float64(p.width))
}

// ValueOver returns the probe's normalized value computed over only the
// most recent window seconds of collected data (clipped to the probe's
// lifetime), rather than cumulatively. Paradyn's Performance Consultant
// draws conclusions from current intervals of data; a windowed value
// tracks phase changes in the application that a cumulative average would
// smear out. Event metrics fall back to the cumulative value.
func (p *Probe) ValueOver(now, window float64) float64 {
	info, _ := metric.Lookup(p.met)
	if !info.Normalized || window <= 0 {
		return p.Value(now)
	}
	end := now
	if p.removed && p.removedAt < end {
		end = p.removedAt
	}
	start := math.Max(p.activeAt, end-window)
	if end <= start || p.width == 0 {
		return 0
	}
	return p.hist.Sum(start, end) / ((end - start) * float64(p.width))
}

// Manager owns all probes for one application execution.
type Manager struct {
	cfg    Config
	space  *resource.Space
	procs  []ProcEntry
	nextID int

	// active holds the inserted probes in insertion order. Each probe
	// accumulates only into itself, so the order intervals are offered in
	// reaches no result; insertion order keeps it deterministic anyway.
	active []*Probe
	// sites, indexed by sim.Interval.Site, holds per site the active
	// probes whose focus covers its labels, in insertion order: built the
	// first time the site is seen, then kept by Request and Remove.
	sites []siteProbes
	// perProcCost is the summed fractional slowdown per process, indexed
	// like procs.
	perProcCost []float64

	totalRequests int
	maxCost       float64
}

// siteProbes is what a Manager keeps of one site.
type siteProbes struct {
	labels *sim.Labels // nil until an interval of the site is seen
	probes []*Probe
}

// NewManager creates an instrumentation manager for the given resource
// space and process set, listed in rank order: procs[r] is the
// simulator's process of rank r.
func NewManager(cfg Config, space *resource.Space, procs []ProcEntry) (*Manager, error) {
	if cfg.BinWidth <= 0 {
		return nil, fmt.Errorf("dyninst: bin width must be positive")
	}
	if cfg.CostPerProcProbe < 0 || cfg.InsertLatency < 0 {
		return nil, fmt.Errorf("dyninst: negative cost or latency")
	}
	if cfg.SyncConstrainedCostFactor <= 0 {
		cfg.SyncConstrainedCostFactor = 1
	}
	if cfg.MaxHistogramBins <= 0 {
		cfg.MaxHistogramBins = DefaultConfig().MaxHistogramBins
	}
	if len(procs) == 0 {
		return nil, fmt.Errorf("dyninst: no processes")
	}
	m := &Manager{
		cfg:         cfg,
		space:       space,
		procs:       procs,
		perProcCost: make([]float64, len(procs)),
	}
	return m, nil
}

// Request inserts a probe for (met : focus) at virtual time at. Data
// collection begins after the configured insertion latency.
func (m *Manager) Request(met metric.ID, focus resource.Focus, at float64) (*Probe, error) {
	if err := metric.Validate(met); err != nil {
		return nil, err
	}
	if !focus.Valid() || focus.Space() != m.space {
		return nil, fmt.Errorf("dyninst: focus %v is not in the manager's space", focus)
	}
	mt, err := newMatcher(met, focus)
	if err != nil {
		return nil, err
	}
	hist, err := metric.NewFoldingTimeHistogram(m.cfg.BinWidth, m.cfg.MaxHistogramBins)
	if err != nil {
		return nil, err
	}
	m.nextID++
	p := &Probe{
		id:          m.nextID,
		met:         met,
		focus:       focus,
		hist:        hist,
		requestedAt: at,
		activeAt:    at + m.cfg.InsertLatency,
		matcher:     mt,
	}
	p.procCost = m.cfg.CostPerProcProbe
	if mt.tagDepth > 0 {
		p.procCost *= m.cfg.SyncConstrainedCostFactor
	}
	for i, pe := range m.procs {
		if mt.matchesProc(pe) {
			p.width++
			m.perProcCost[i] += p.procCost
		}
	}
	m.active = append(m.active, p)
	for i := range m.sites {
		if sp := &m.sites[i]; sp.labels != nil && mt.matchesLabels(sp.labels) {
			sp.probes = append(sp.probes, p)
		}
	}
	m.totalRequests++
	if c := m.TotalCost(); c > m.maxCost {
		m.maxCost = c
	}
	return p, nil
}

// Remove deletes a probe at virtual time at; its accumulated data remains
// readable.
func (m *Manager) Remove(p *Probe, at float64) {
	if p == nil || p.removed {
		return
	}
	i := slices.Index(m.active, p)
	if i < 0 {
		return
	}
	m.active = slices.Delete(m.active, i, i+1)
	p.removed = true
	p.removedAt = at
	for i, pe := range m.procs {
		if p.matcher.matchesProc(pe) {
			m.perProcCost[i] -= p.procCost
			if m.perProcCost[i] < 1e-12 {
				m.perProcCost[i] = 0
			}
		}
	}
	for i := range m.sites {
		sp := &m.sites[i]
		if j := slices.Index(sp.probes, p); j >= 0 {
			sp.probes = slices.Delete(sp.probes, j, j+1)
		}
	}
}

// ActiveProbes returns the number of currently inserted probes.
func (m *Manager) ActiveProbes() int { return len(m.active) }

// TotalRequests returns the number of probes ever requested.
func (m *Manager) TotalRequests() int { return m.totalRequests }

// TotalCost returns the instrumentation cost as the mean fractional
// slowdown across processes. The Performance Consultant halts search
// expansion when this exceeds its cost limit.
func (m *Manager) TotalCost() float64 {
	var sum float64
	for _, c := range m.perProcCost {
		sum += c
	}
	return sum / float64(len(m.procs))
}

// MaxCostSeen returns the highest TotalCost observed at any request.
func (m *Manager) MaxCostSeen() float64 { return m.maxCost }

// CostOf predicts the additional TotalCost a probe on focus would add.
func (m *Manager) CostOf(met metric.ID, focus resource.Focus) float64 {
	mt, err := newMatcher(met, focus)
	if err != nil {
		return 0
	}
	n := 0
	for _, pe := range m.procs {
		if mt.matchesProc(pe) {
			n++
		}
	}
	c := m.cfg.CostPerProcProbe
	if mt.tagDepth > 0 {
		c *= m.cfg.SyncConstrainedCostFactor
	}
	return float64(n) * c / float64(len(m.procs))
}

// Slowdown implements the simulator perturbation hook: the multiplicative
// compute slowdown for the process of the given rank.
func (m *Manager) Slowdown(rank int) float64 {
	return 1 + m.perProcCost[rank]
}

// OnInterval implements sim.Observer: a completed activity interval is
// offered to the active probes whose focus covers its site, and one
// without a site to every active probe; each takes it if it also
// matches the probe's metric.
func (m *Manager) OnInterval(iv sim.Interval) {
	if iv.Site <= 0 {
		for _, p := range m.active {
			if p.matcher.matches(&iv) {
				p.accumulate(&iv)
			}
		}
		return
	}
	for _, p := range m.probesAt(&iv) {
		if p.matcher.matchesKind(iv.Kind) {
			p.accumulate(&iv)
		}
	}
}

// probesAt returns the active probes covering iv's site, listed from the
// active set the first time the site is seen.
func (m *Manager) probesAt(iv *sim.Interval) []*Probe {
	if iv.Site >= len(m.sites) { // with room for the sites around it: one growth a session, not one a site
		m.sites = append(m.sites, make([]siteProbes, iv.Site+32-len(m.sites))...)
	}
	sp := &m.sites[iv.Site]
	if sp.labels == nil {
		sp.labels = iv.Labels
		for _, p := range m.active {
			if p.matcher.matchesLabels(sp.labels) {
				sp.probes = append(sp.probes, p)
			}
		}
	}
	return sp.probes
}

// accumulate adds a matching interval to the probe.
func (p *Probe) accumulate(iv *sim.Interval) {
	// Clip to the probe's active lifetime: data before insertion is lost,
	// exactly as with real dynamic instrumentation.
	start := math.Max(iv.Start, p.activeAt)
	if start >= iv.End {
		return
	}
	switch p.met {
	case metric.MsgCount:
		p.events += float64(iv.Msgs)
	case metric.MsgBytes:
		p.events += float64(iv.Bytes)
	case metric.ProcCalls:
		p.events += float64(iv.Calls)
	default:
		// Time metrics accumulate the activity seconds inside the probe's
		// lifetime.
		_ = p.hist.Add(start, iv.End, iv.End-start)
	}
}
