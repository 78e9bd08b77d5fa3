package dyninst

import (
	"errors"
	"fmt"

	"repro/internal/metric"
	"repro/internal/resource"
	"repro/internal/sim"
)

// matcher is the compiled form of a (metric : focus) pair: string
// predicates extracted from the focus selections, applied to activity
// intervals. Compiling once per probe keeps interval dispatch cheap.
type matcher struct {
	met metric.ID

	module   string // "" = any module
	function string // "" = any function
	node     string // "" = any node
	proc     string // "" = any process

	tagDepth int    // 0 = any; 1 = any message tag; 2 = exact tag
	tag      string // exact tag when tagDepth == 2
}

// ErrTooDeep refuses a focus whose selection lies deeper in its
// hierarchy than an interval's labels reach (a Code selection below a
// function, say): no probe can measure the pair.
var ErrTooDeep = errors.New("dyninst: selection too deep to instrument")

func newMatcher(met metric.ID, focus resource.Focus) (matcher, error) {
	mt := matcher{met: met}
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

// matchesProc reports whether the focus covers the given process (Process
// and Machine selections only); used for width and cost computation.
func (mt *matcher) matchesProc(pe ProcEntry) bool {
	if mt.proc != "" && mt.proc != pe.Name {
		return false
	}
	if mt.node != "" && mt.node != pe.Node {
		return false
	}
	return true
}

// matches reports whether an interval is attributable to this probe:
// its kind is the metric's and its labels are the focus's.
func (mt *matcher) matches(iv *sim.Interval) bool {
	return mt.matchesKind(iv.Kind) && mt.matchesLabels(iv.Labels)
}

func (mt *matcher) matchesKind(k sim.Kind) bool {
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

func (mt *matcher) matchesLabels(l *sim.Labels) bool {
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
