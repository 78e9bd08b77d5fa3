package dyninst

import (
	"errors"
	"fmt"

	"repro/internal/metric"
	"repro/internal/resource"
	"repro/internal/sim"
)

// Matcher is the compiled form of a (metric : focus) pair: string
// predicates extracted from the focus selections, applied to activity
// intervals and processes, and the pair's one definition of a value. A
// pair is compiled once, and its probe, its cost and its evaluation over
// a trace all read that one Matcher, so a live value and a trace's value
// rest on the same rules.
type Matcher struct {
	met metric.ID

	module   string // "" = any module
	function string // "" = any function
	node     string // "" = any node
	proc     string // "" = any process
	tag      string // exact tag when tagDepth == 2

	tagDepth   int8 // 0 = any; 1 = any message tag; 2 = exact tag
	normalized bool // the metric's metric.Info.Normalized
}

// ErrTooDeep refuses a focus whose selection lies deeper in its
// hierarchy than an interval's labels reach (a Code selection below a
// function, say): no probe can measure the pair.
var ErrTooDeep = errors.New("dyninst: selection too deep to instrument")

// Compile makes the matcher of a (metric : focus) pair. ErrTooDeep means
// the pair is structurally unmeasurable.
func Compile(met metric.ID, focus resource.Focus) (Matcher, error) {
	if err := metric.Validate(met); err != nil {
		return Matcher{}, err
	}
	if !focus.Valid() {
		return Matcher{}, errors.New("dyninst: invalid focus")
	}
	info, _ := metric.Lookup(met)
	mt := Matcher{met: met, normalized: info.Normalized}
	for i := range focus.Space().NumHierarchies() {
		sel := focus.SelectionAt(i)
		if sel.IsRoot() {
			continue
		}
		switch h := sel.Hierarchy().Name(); h {
		case resource.HierCode:
			switch sel.Depth() {
			case 1:
				mt.module = sel.Label()
			case 2:
				mt.module = sel.Parent().Label()
				mt.function = sel.Label()
			default:
				return mt, ErrTooDeep
			}
		case resource.HierMachine:
			if sel.Depth() != 1 {
				return mt, ErrTooDeep
			}
			mt.node = sel.Label()
		case resource.HierProcess:
			if sel.Depth() != 1 {
				return mt, ErrTooDeep
			}
			mt.proc = sel.Label()
		case resource.HierSyncObject:
			switch sel.Depth() {
			case 1:
				mt.tagDepth = 1
			case 2:
				mt.tagDepth = 2
				mt.tag = sel.Label()
			default:
				return mt, ErrTooDeep
			}
		default:
			return mt, fmt.Errorf("dyninst: unknown hierarchy %q", h)
		}
	}
	return mt, nil
}

// Width returns how many of procs the pair's focus covers (Process and
// Machine selections only): the processes its value is divided among
// and its probe slows down.
func (mt *Matcher) Width(procs []ProcEntry) int {
	n := 0
	for _, pe := range procs {
		if mt.covers(pe) {
			n++
		}
	}
	return n
}

func (mt *Matcher) covers(pe ProcEntry) bool {
	return (mt.proc == "" || mt.proc == pe.Name) && (mt.node == "" || mt.node == pe.Node)
}

// Matches reports whether an interval is attributable to the pair: its
// kind is the metric's and its labels are the focus's.
func (mt *Matcher) Matches(iv *sim.Interval) bool {
	return mt.matchesKind(iv.Kind) && mt.matchesLabels(iv.Labels)
}

func (mt *Matcher) matchesKind(k sim.Kind) bool {
	switch mt.met {
	case metric.CPUTime:
		return k == sim.KindCPU
	case metric.SyncWaitTime:
		return k == sim.KindSyncWait
	case metric.IOWaitTime:
		return k == sim.KindIOWait
	}
	return true // ExecTime, MsgCount, MsgBytes, ProcCalls: any kind
}

func (mt *Matcher) matchesLabels(l *sim.Labels) bool {
	if mt.proc != "" && mt.proc != l.Process {
		return false
	}
	if mt.node != "" && mt.node != l.Node {
		return false
	}
	if mt.module != "" && mt.module != l.Module {
		return false
	}
	if mt.function != "" && mt.function != l.Function {
		return false
	}
	switch mt.tagDepth {
	case 1:
		if l.Tag == "" {
			return false
		}
	case 2:
		if l.Tag != mt.tag {
			return false
		}
	}
	return true
}

// Count returns what matching activity with these counts adds to the
// pair under an event metric: its messages, its bytes or its calls. A
// time metric counts no events.
func (mt *Matcher) Count(msgs, bytes, calls int) int {
	switch mt.met {
	case metric.MsgCount:
		return msgs
	case metric.MsgBytes:
		return bytes
	case metric.ProcCalls:
		return calls
	}
	return 0
}

// Value turns what the pair accumulated over window seconds on width
// covered processes into its value: under a normalized (time) metric the
// seconds as a fraction of the covered execution time, under an event
// metric the events per second per covered process. An empty window or
// focus has value 0.
func (mt *Matcher) Value(seconds, events, window float64, width int) float64 {
	if window <= 0 || width == 0 {
		return 0
	}
	if mt.normalized {
		return seconds / (window * float64(width))
	}
	return events / (window * float64(width))
}
