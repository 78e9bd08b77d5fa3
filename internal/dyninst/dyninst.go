// Package dyninst simulates Paradyn's dynamic instrumentation: measurement
// probes for (metric : focus) pairs are inserted into and deleted from a
// running (simulated) application. Each probe accumulates matching
// activity intervals from its insertion point onward, perturbs the
// application's compute phases while active, and contributes to a global
// instrumentation cost that the Performance Consultant uses to throttle
// its search.
//
// A pair is compiled once into a Matcher (Compile), which a Manager
// prices (CostOf) and instruments (Request) and a postmortem evaluation
// reads over a trace: which intervals a pair takes, which count an event
// metric adds and how a value is normalized are each written once, here.
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
	mt     *Matcher // the pair's, compiled by its caller
	hist   *metric.TimeHistogram
	events float64 // accumulated event count for rate metrics

	activeAt  float64
	removed   bool
	removedAt float64

	width    int     // number of processes covered
	procCost float64 // per-covered-process cost fraction
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
	return p.mt.Value(p.hist.Total(), p.events, p.ObservedWindow(now), p.width)
}

// ValueOver returns the probe's normalized value computed over only the
// most recent window seconds of collected data (clipped to the probe's
// lifetime), rather than cumulatively. Paradyn's Performance Consultant
// draws conclusions from current intervals of data; a windowed value
// tracks phase changes in the application that a cumulative average would
// smear out. Event metrics fall back to the cumulative value.
func (p *Probe) ValueOver(now, window float64) float64 {
	if !p.mt.normalized || window <= 0 {
		return p.Value(now)
	}
	end := now
	if p.removed && p.removedAt < end {
		end = p.removedAt
	}
	start := math.Max(p.activeAt, end-window)
	if end <= start {
		return 0
	}
	return p.mt.Value(p.hist.Sum(start, end), 0, end-start, p.width)
}

// Manager owns all probes for one application execution.
type Manager struct {
	cfg   Config
	space *resource.Space
	procs []ProcEntry

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
	if cfg.MaxHistogramBins < 2 {
		return nil, fmt.Errorf("dyninst: a histogram folds at 2 bins or more")
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

// Space returns the resource space the manager instruments; a pair
// compiled from a focus of another space measures nothing meaningful.
func (m *Manager) Space() *resource.Space { return m.space }

// Request inserts a probe for the compiled pair mt at virtual time at;
// the probe reads mt for as long as it lives. Data collection begins
// after the configured insertion latency.
func (m *Manager) Request(mt *Matcher, at float64) *Probe {
	// NewManager checked the histogram's parameters.
	hist, _ := metric.NewFoldingTimeHistogram(m.cfg.BinWidth, m.cfg.MaxHistogramBins)
	p := &Probe{
		mt:       mt,
		hist:     hist,
		activeAt: at + m.cfg.InsertLatency,
		width:    mt.Width(m.procs),
		procCost: m.procCost(mt),
	}
	m.charge(p, p.procCost)
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
	return p
}

// charge adds c to the cost of every process p covers; what rounding
// leaves of a removed probe's cost is cleared.
func (m *Manager) charge(p *Probe, c float64) {
	for i, pe := range m.procs {
		if p.mt.covers(pe) {
			m.perProcCost[i] += c
			if m.perProcCost[i] < 1e-12 {
				m.perProcCost[i] = 0
			}
		}
	}
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
	m.charge(p, -p.procCost)
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

// CostOf predicts the additional TotalCost a probe of the compiled pair
// mt would add.
func (m *Manager) CostOf(mt *Matcher) float64 {
	return float64(mt.Width(m.procs)) * m.procCost(mt) / float64(len(m.procs))
}

// procCost is the slowdown a probe of mt adds to each process it covers:
// tag-predicated instrumentation wraps every message operation.
func (m *Manager) procCost(mt *Matcher) float64 {
	c := m.cfg.CostPerProcProbe
	if mt.tagDepth > 0 {
		c *= m.cfg.SyncConstrainedCostFactor
	}
	return c
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
			if p.mt.Matches(&iv) {
				p.accumulate(&iv)
			}
		}
		return
	}
	for _, p := range m.probesAt(&iv) {
		if p.mt.matchesKind(iv.Kind) {
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
			if p.mt.matchesLabels(sp.labels) {
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
	if p.mt.normalized {
		// Time metrics accumulate the activity seconds inside the probe's
		// lifetime.
		_ = p.hist.Add(start, iv.End, iv.End-start)
	} else {
		p.events += float64(p.mt.Count(iv.Msgs, iv.Bytes, iv.Calls))
	}
}
