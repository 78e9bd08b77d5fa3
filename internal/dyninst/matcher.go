package dyninst

import (
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

	// verdict remembers matchesLabels per Interval.Site (a site is a label
	// set, emitted thousands of times): 0 unknown, 1 match, -1 no match.
	verdict []int8
}

func newMatcher(met metric.ID, focus resource.Focus) (matcher, error) {
	mt := matcher{met: met}
	sp := focus.Space()
	for i, h := range sp.Hierarchies() {
		sel := focus.SelectionAt(i)
		if sel.IsRoot() {
			continue
		}
		switch h.Name() {
		case resource.HierCode:
			switch sel.Depth() {
			case 1:
				mt.module = sel.Label()
			case 2:
				mt.module = sel.Parent().Label()
				mt.function = sel.Label()
			default:
				return mt, fmt.Errorf("dyninst: Code selection %s too deep", sel.Path())
			}
		case resource.HierMachine:
			if sel.Depth() != 1 {
				return mt, fmt.Errorf("dyninst: Machine selection %s too deep", sel.Path())
			}
			mt.node = sel.Label()
		case resource.HierProcess:
			if sel.Depth() != 1 {
				return mt, fmt.Errorf("dyninst: Process selection %s too deep", sel.Path())
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
				return mt, fmt.Errorf("dyninst: SyncObject selection %s too deep", sel.Path())
			}
		default:
			return mt, fmt.Errorf("dyninst: unknown hierarchy %q", h.Name())
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
// its kind is the metric's and its labels are the focus's. The labels of
// an interval a simulator numbered are compared once per site.
func (mt *matcher) matches(iv *sim.Interval) bool {
	if !mt.matchesKind(iv.Kind) {
		return false
	}
	site := iv.Site
	if site <= 0 {
		return mt.matchesLabels(iv)
	}
	if site >= len(mt.verdict) { // with room for the sites around it: one growth a probe, not one a site
		mt.verdict = append(mt.verdict, make([]int8, site+32-len(mt.verdict))...)
	}
	if mt.verdict[site] == 0 {
		mt.verdict[site] = -1
		if mt.matchesLabels(iv) {
			mt.verdict[site] = 1
		}
	}
	return mt.verdict[site] > 0
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

func (mt *matcher) matchesLabels(iv *sim.Interval) bool {
	if mt.proc != "" && mt.proc != iv.Process {
		return false
	}
	if mt.node != "" && mt.node != iv.Node {
		return false
	}
	if mt.module != "" && mt.module != iv.Module {
		return false
	}
	if mt.function != "" && mt.function != iv.Function {
		return false
	}
	switch mt.tagDepth {
	case 1:
		if iv.Tag == "" {
			return false
		}
	case 2:
		if iv.Tag != mt.tag {
			return false
		}
	}
	return true
}
