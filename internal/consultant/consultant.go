package consultant

import (
	"fmt"

	"repro/internal/dyninst"
	"repro/internal/resource"
)

// Config holds the Performance Consultant's search parameters.
type Config struct {
	// TestInterval is how many seconds of collected data a node needs
	// before a true/false conclusion is drawn.
	TestInterval float64
	// CostLimit is the maximum instrumentation cost (mean fractional
	// slowdown); expansion halts above it and resumes as deletions bring
	// cost back down.
	CostLimit float64
	// Policy selects the search order among equal-priority pairs.
	Policy SearchPolicy
	// RecencyWindow, when positive, draws conclusions from only the most
	// recent window of collected data instead of the cumulative average,
	// so that the search tracks application phase changes.
	RecencyWindow float64
	// MaxNodes is a safety cap on SHG size (0 = default).
	MaxNodes int
}

// DefaultConfig returns the stock search parameters.
func DefaultConfig() Config {
	return Config{
		TestInterval: 4.0,
		CostLimit:    0.06,
		MaxNodes:     100_000,
	}
}

// Consultant runs one online diagnosis over one application execution:
// it drives a Search with dynamic instrumentation, and owns what is about
// probes — admission under the cost limit, the test interval, the recency
// window, persistent re-testing and stall accounting.
type Consultant struct {
	cfg    Config
	inst   *dyninst.Manager
	search *Search

	testing []*Node // probe active, collecting data

	started     bool
	testedPairs int
	stalled     bool // expansion currently halted by the cost limit
	stallEvents int
}

// New creates a Performance Consultant over the given resource space and
// an instrumentation manager of the same space. hypRoot is typically
// StandardHypotheses().
func New(cfg Config, space *resource.Space, inst *dyninst.Manager, hypRoot *Hypothesis, guid Guidance) (*Consultant, error) {
	if inst.Space() != space {
		return nil, fmt.Errorf("consultant: the instrumentation manager is of another resource space")
	}
	if cfg.TestInterval <= 0 {
		return nil, fmt.Errorf("consultant: TestInterval must be positive")
	}
	if cfg.CostLimit <= 0 {
		return nil, fmt.Errorf("consultant: CostLimit must be positive")
	}
	search, err := NewSearch(space, hypRoot, guid, cfg.Policy, cfg.MaxNodes)
	if err != nil {
		return nil, err
	}
	return &Consultant{cfg: cfg, inst: inst, search: search}, nil
}

// SHG returns the Search History Graph.
func (c *Consultant) SHG() *SHG { return c.search.SHG() }

// TestedPairs returns how many (hypothesis : focus) pairs have been
// instrumented so far.
func (c *Consultant) TestedPairs() int { return c.testedPairs }

// StallEvents returns how many times expansion was halted by the cost
// limit.
func (c *Consultant) StallEvents() int { return c.stallEvents }

// Start seeds the search and instruments as much of it as the cost limit
// admits.
func (c *Consultant) Start(now float64) error {
	if c.started {
		return fmt.Errorf("consultant: already started")
	}
	c.started = true
	c.search.Seed(now)
	c.activate(now)
	return nil
}

// Tick advances the search at virtual time now: concluded nodes are
// refined or torn down, and pending nodes are activated while the
// instrumentation cost stays under the limit.
func (c *Consultant) Tick(now float64) {
	if !c.started {
		return
	}
	c.concludeReady(now)
	c.activate(now)
}

func (c *Consultant) concludeReady(now float64) {
	var still []*Node
	for _, n := range c.testing {
		if !c.evaluate(n, now) {
			still = append(still, n)
		}
	}
	c.testing = still
}

// evaluate draws or re-draws a conclusion for a testing node; it returns
// true when the node should leave the testing list.
func (c *Consultant) evaluate(n *Node, now float64) bool {
	if n.probe == nil {
		return true
	}
	if n.probe.ObservedWindow(now) < c.cfg.TestInterval {
		return false
	}
	var value float64
	if c.cfg.RecencyWindow > 0 {
		value = n.probe.ValueOver(now, c.cfg.RecencyWindow)
	} else {
		value = n.probe.Value(now)
	}
	// A persistent (High-priority) pair's conclusion may flip either way
	// as the application's behaviour changes (most visibly with a recency
	// window configured); one that turns true later is refined then.
	c.search.Conclude(n, value, now)
	if n.Persistent && !(c.stalled && c.search.Waiting()) {
		return false // stays under observation
	}
	// A non-persistent pair's instrumentation is deleted once its
	// conclusion is drawn (and its children generated), so the cost budget
	// tracks the search frontier; a persistent one yields its slot only
	// while the cost limit is starving other pairs.
	c.inst.Remove(n.probe, now)
	return true
}

// activate starts instrumentation for pending nodes in priority order
// while the cost limit allows.
func (c *Consultant) activate(now float64) {
	for _, n := range c.search.Pending() {
		mt, err := n.Matcher()
		if err != nil {
			c.search.Unmeasurable(n, now) // no probe can measure it
			continue
		}
		add := c.inst.CostOf(mt)
		if add > c.cfg.CostLimit {
			// This pair can never fit the instrumentation budget, even
			// alone; concluding it false keeps the queue moving.
			n.State = StateFalse
			n.ConcludedAt = now
			continue
		}
		if c.inst.TotalCost()+add > c.cfg.CostLimit {
			if !c.stalled {
				c.stalled = true
				c.stallEvents++
			}
			return
		}
		c.stalled = false
		n.probe = c.inst.Request(mt, now)
		n.State = StateTesting
		n.StartedAt = now
		c.testedPairs++
		c.testing = append(c.testing, n)
	}
}

// Quiesced reports whether the search has nothing left to do: no pending
// pairs and no non-persistent node still awaiting a conclusion.
func (c *Consultant) Quiesced() bool {
	if !c.started || c.search.Waiting() {
		return false
	}
	for _, n := range c.testing {
		if !n.Persistent || n.State == StateTesting {
			return false // a persistent node must have concluded once
		}
	}
	return true
}

// Bottlenecks returns the true nodes ordered by conclusion time, excluding
// the trivially true root.
func (c *Consultant) Bottlenecks() []*Node {
	all := c.search.SHG().TrueNodes()
	out := make([]*Node, 0, len(all))
	for _, n := range all {
		if n.Hyp.Name == TopLevelHypothesis {
			continue
		}
		out = append(out, n)
	}
	return out
}
