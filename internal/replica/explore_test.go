package replica

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"
)

// The explorer: every reachable state of three nodes' ownership tables
// over two shards, breadth-first, so the first violation comes with a
// shortest trace, and closed on revisit, so the tree stays a graph. It
// drives the pure step exactly as the drivers do — pull, monitor tick,
// election round, operator promote, detector, seam hand-over, crash,
// restart, rejoin — with the network and the disks reduced to what step
// can observe of them.

const (
	xNodes  = 3
	xShards = 2
)

var (
	xIDs  = [xNodes]string{"http://a", "http://b", "http://c"}
	xT0   = time.Unix(1000, 0)
	xTTL  = time.Second
	xLate = xT0.Add(10 * xTTL) // far enough past any lease or degradation clock
)

// How a row came to be owned — what the single-writer invariant may and
// may not assume about the epoch it is owned under.
const (
	byNobody uint8 = iota
	byVote         // the configured primary's first start, or a stand that passed the ballot checks
	byReload       // a restart that reloaded ownership, under the journal's next generation
	byWord         // an operator's or a seam's stand: no ballot was checked
)

// xrow is a row reduced to what a decision reads: the lease columns are
// write-only, applied positions stay equal, the peer is a node's index
// (-1 none), and of the lease on that peer only whether it lapsed.
type xrow struct {
	role    role
	peer    int8
	down    bool // the store reported the shard degraded
	suspect bool
	epoch   uint16
	demoted uint16
}

// xnode is one node: its table while it is up, and what survives a crash —
// the persisted columns and the journals' generations.
type xnode struct {
	up       bool
	primary  bool // configured with -replicas (start-up runs the rejoin check), not -follow
	persists bool // has a follower side, so rows have a STATE.json
	seen     uint16
	rows     [xShards]xrow
	disk     [xShards]xrow // role is owner (promoted) or following, of peer
	journal  [xShards]uint16
	// Ghosts, for the invariants only.
	how        [xShards]uint8
	fencedUpTo [xShards]uint16 // the newest epoch this node was fenced out of
}

// xinfo is what a node's info handshake said: a ballot, and a claim.
type xinfo struct {
	up      bool // it answered at all
	suspect bool
	epoch   uint16          // the newest it has seen
	owned   [xShards]uint16 // epoch owned under, 0 = not owned
}

// xworld holds no pointer and nothing that is not a decision's input.
type xworld struct {
	n    [xNodes]xnode
	prev [xNodes]xinfo // each node's handshake one step earlier
	// faults is how much of the fault budget the trace has spent. A crash,
	// an operator's promote, a shard degrading and a lease lapsing on a node
	// whose peers are all alive (a stall, a partition) each cost one;
	// everything the nodes then do about it — and a restart, and whoever
	// fails to answer a probe — is free. The budget is what makes the space
	// finite: epochs only ever grow.
	faults uint8
}

func xindex(id string) int8 {
	for j, x := range xIDs {
		if x == id {
			return int8(j)
		}
	}
	return -1
}

func xpeer(i int8) string {
	if i < 0 {
		return ""
	}
	return xIDs[i]
}

// state is the node's table as step takes it.
func (n *xnode) state(i int) state {
	s := state{self: xIDs[i], ttl: xTTL, seen: uint64(n.seen), rows: make([]row, xShards)}
	for sh, r := range n.rows {
		s.rows[sh] = row{role: r.role, epoch: uint64(r.epoch), peer: xpeer(r.peer), demoted: uint64(r.demoted), heard: xT0, suspect: r.suspect}
		if r.down {
			s.rows[sh].downSince = xT0
		}
	}
	return s
}

func small(v uint64) uint16 {
	if v > 1<<15 {
		panic("explorer: an epoch outgrew its field")
	}
	return uint16(v)
}

func (n *xnode) absorb(s state) {
	n.seen = small(s.seen)
	for sh, r := range s.rows {
		n.rows[sh] = xrow{role: r.role, peer: xindex(r.peer), down: !r.downSince.IsZero(), suspect: r.suspect, epoch: small(r.epoch), demoted: small(r.demoted)}
	}
}

// suspects is state.suspects on the reduced rows.
func (n *xnode) suspects() (shards []int) {
	for sh, r := range n.rows {
		if r.role == roleFollowing && r.suspect {
			shards = append(shards, sh)
		}
	}
	return shards
}

func (w *xworld) info(i int) (in xinfo) {
	n := &w.n[i]
	if !n.up {
		return in
	}
	in.up, in.suspect, in.epoch = true, len(n.suspects()) > 0, n.seen
	for sh, r := range n.rows {
		in.epoch = max(in.epoch, r.epoch)
		if r.role == roleOwner {
			in.owned[sh] = r.epoch
		}
	}
	return in
}

func (in xinfo) claims() (cs []Claim) {
	for sh, e := range in.owned {
		if e != 0 {
			cs = append(cs, Claim{Shard: sh, Epoch: uint64(e)})
		}
	}
	return cs
}

func (in xinfo) ballot(i int) peerInfo {
	return peerInfo{url: xIDs[i], id: xIDs[i], InfoResponse: InfoResponse{Suspect: in.suspect, Epoch: uint64(in.epoch), Owned: in.claims(), Advertise: xIDs[i]}}
}

// xkey names a visited state: a digest of its canonical form. A table of
// whole worlds would hold the same million states in ten times the memory.
type xkey [16]byte

// canonical closes a state together with its mirror image: nothing tells
// the two shards apart, so a world and the same world with its shards
// swapped have the same future, and the visited set keeps the smaller of
// the two. (The frontier keeps the world as reached, so a trace's shard
// numbers stay its own.) The nodes are not interchangeable: their URLs
// break ties.
func (w *xworld) canonical() xkey {
	a, b := w.pack(0), w.pack(1)
	if bytes.Compare(b[:], a[:]) < 0 {
		a = b
	}
	sum := sha256.Sum256(a[:])
	return xkey(sum[:16])
}

// pack writes the world a byte a field, shard first (0) or shard 1 first.
func (w *xworld) pack(first int) (out [1 + xNodes*(6+xShards*13)]byte) {
	at := 0
	put := func(v uint16) {
		if v > 255 {
			panic("explorer: an epoch outgrew its byte")
		}
		out[at] = byte(v)
		at++
	}
	flag := func(v bool) {
		if v {
			out[at] = 1
		}
		at++
	}
	put(uint16(w.faults))
	for i := range w.n {
		n, prev := &w.n[i], &w.prev[i]
		flag(n.up)
		flag(n.persists)
		put(n.seen)
		flag(prev.up)
		flag(prev.suspect)
		put(prev.epoch)
		for k := 0; k < xShards; k++ {
			sh := (first + k) % xShards
			r, d := n.rows[sh], n.disk[sh]
			put(uint16(r.role))
			put(uint16(r.peer + 1))
			flag(r.down)
			flag(r.suspect)
			put(r.epoch)
			put(r.demoted)
			put(uint16(d.role))
			put(uint16(d.peer + 1))
			put(d.epoch)
			put(d.demoted)
			put(n.journal[sh])
			put(uint16(n.how[sh])<<6 | n.fencedUpTo[sh])
			put(prev.owned[sh])
		}
	}
	return out
}

// xstep is the step under exploration: the real one, or one with a rule
// substituted.
type xstep func(state, event, time.Time) (state, []effect)

// explorer holds the run: the step, and the first violation met.
type explorer struct {
	step      xstep
	violation string
	// Two owners of one (shard, epoch) are a violation when both were
	// voted in. A pair in which one was never asked — a forced stand, a
	// restart that reloaded ownership — is counted in unasked instead,
	// unless strict names its kind: neither consults anyone, so no row of a
	// table can prevent it. The shortest case of each kind is pinned below
	// and open in ROADMAP.
	strict  uint8
	unasked int
}

func (x *explorer) fail(format string, args ...any) {
	if x.violation == "" {
		x.violation = fmt.Sprintf(format, args...)
	}
}

// apply is the driver: one event through step on node i, the invariants a
// single transition can break checked, the table's own effects executed
// on the node's disk and journals. It returns the remaining effects.
func (x *explorer) apply(w *xworld, i int, ev event, now time.Time) []effect {
	return x.applyTo(w, i, w.n[i].state(i), ev, now)
}

// applyTo is apply on a table the caller adjusted: old is node i's.
func (x *explorer) applyTo(w *xworld, i int, old state, ev event, now time.Time) []effect {
	n := &w.n[i]
	next, fx := x.step(old, ev, now)
	var named []int // the shards the event names
	switch ev.kind {
	case evStand:
		named = ev.shards
	case evClaim:
		for _, c := range ev.claims {
			named = append(named, c.Shard)
		}
	case evArm, evTick, evProbed:
	default:
		named = []int{ev.shard}
	}
	names := func(sh int) bool {
		for _, s := range named {
			if s == sh {
				return true
			}
		}
		return false
	}
	for sh, r := range next.rows {
		was := old.rows[sh]
		if r.role != was.role && !names(sh) {
			x.fail("%s on %s named shards %v and moved shard %d from %s to %s", ev.kind, xIDs[i], named, sh, was.role, r.role)
		}
		if r.epoch < was.epoch {
			x.fail("%s on %s took shard %d's epoch from %d back to %d", ev.kind, xIDs[i], sh, was.epoch, r.epoch)
		}
		if r.role == roleOwner && was.role != roleOwner {
			if ev.kind != evStand || !names(sh) {
				x.fail("%s on %s made it the owner of shard %d without a stand that covered it", ev.kind, xIDs[i], sh)
			}
			n.how[sh] = byVote
			if ev.forced {
				n.how[sh] = byWord
			}
		}
		if r.role != roleOwner {
			n.how[sh] = byNobody
		}
		if r.role == roleFenced && was.role != roleFenced {
			n.fencedUpTo[sh] = max(n.fencedUpTo[sh], small(r.demoted))
		}
	}
	n.absorb(next)
	var rest []effect
	for _, e := range fx {
		switch e.kind {
		case fxBumpEpoch:
			n.journal[e.shard] = max(n.journal[e.shard], small(e.epoch))
		case fxPersist:
			if rs, ok := next.rows[e.shard].columns(); ok && n.persists {
				n.disk[e.shard] = xrow{epoch: small(rs.Epoch), demoted: small(rs.DemotedFrom), peer: -1}
				if n.primary { // the one start-up that reads whom a row followed
					n.disk[e.shard].peer = xindex(rs.Primary)
				}
				if rs.Promoted {
					n.disk[e.shard].role = roleOwner
				}
			}
		default:
			rest = append(rest, e)
		}
	}
	return rest
}

// check holds the invariants of a whole world: at most one node writable
// per (shard, epoch), and never writable again at an epoch it was fenced
// out of.
func (x *explorer) check(w *xworld) {
	for sh := 0; sh < xShards; sh++ {
		for i := range w.n {
			ri := w.n[i].rows[sh]
			if !w.n[i].up || ri.role != roleOwner {
				continue
			}
			if ri.epoch <= w.n[i].fencedUpTo[sh] {
				x.fail("%s is writable on shard %d at epoch %d, which it was fenced out of (%d)", xIDs[i], sh, ri.epoch, w.n[i].fencedUpTo[sh])
			}
			for j := i + 1; j < xNodes; j++ {
				rj := w.n[j].rows[sh]
				if !w.n[j].up || rj.role != roleOwner || rj.epoch != ri.epoch {
					continue
				}
				if how := max(w.n[i].how[sh], w.n[j].how[sh]); how != byVote {
					if how != x.strict {
						x.unasked++
						continue
					}
				}
				x.fail("%s and %s are both writable on shard %d at epoch %d", xIDs[i], xIDs[j], sh, ri.epoch)
			}
		}
	}
}

// xevent is one thing that can happen to the world, as data: which kind,
// to which node, and the kind's arguments.
type xevent struct {
	kind    uint8
	node    int8
	shard   int8
	other   int8         // the peer gone quiet, pulled from, handed to, or seen claiming
	stale   bool         // xClaim: the claim is the one of a step earlier
	free    bool         // xLapse: the quiet peer is down, so the lapse is no fault
	mask    uint8        // xRestart: who answers the rejoin probe; xPromote: which shards
	answers [xNodes]int8 // xElect: per node, no answer (0), its handshake of now (1) or of a step earlier (2)
}

const (
	xCrash uint8 = iota
	xRestart
	xLapse
	xPull
	xElect
	xPromote
	xHandOver
	xClaim
)

func (e xevent) String() string {
	n := xIDs[e.node]
	switch e.kind {
	case xCrash:
		return "crash " + n
	case xRestart:
		var who []string
		for j := range xIDs {
			if e.mask&(1<<j) != 0 {
				who = append(who, xIDs[j])
			}
		}
		if who == nil {
			who = []string{"nobody"}
		}
		return fmt.Sprintf("restart %s, rejoin probe answered by %s", n, strings.Join(who, "+"))
	case xLapse:
		return fmt.Sprintf("%s's lease on %s lapses", n, xIDs[e.other])
	case xPull:
		return fmt.Sprintf("%s pulls shard %d from %s", n, e.shard, xIDs[e.other])
	case xElect:
		var who []string
		for j, a := range e.answers {
			switch a {
			case 1:
				who = append(who, xIDs[j])
			case 2:
				who = append(who, xIDs[j]+" (a step earlier)")
			}
		}
		if who == nil {
			who = []string{"nobody"}
		}
		return fmt.Sprintf("%s runs an election round, ballots from %s", n, strings.Join(who, ", "))
	case xPromote:
		return fmt.Sprintf("operator promotes %v on %s", shardSet(e.mask), n)
	case xHandOver:
		return fmt.Sprintf("shard %d degrades on %s past the TTL and is handed to %s", e.shard, n, xIDs[e.other])
	}
	if e.stale {
		return fmt.Sprintf("%s sees %s's claim of a step earlier", n, xIDs[e.other])
	}
	return fmt.Sprintf("%s sees %s's claim", n, xIDs[e.other])
}

func shardSet(mask uint8) (shards []int) {
	for sh := 0; sh < xShards; sh++ {
		if mask&(1<<sh) != 0 {
			shards = append(shards, sh)
		}
	}
	return shards
}

func (x *explorer) run(w *xworld, e xevent) {
	i := int(e.node)
	switch e.kind {
	case xCrash:
		w.faults++
		w.n[i].up, w.n[i].seen, w.n[i].rows = false, 0, [xShards]xrow{}
	case xRestart:
		x.restart(w, i, e.mask)
	case xLapse:
		if !e.free {
			w.faults++
		}
		// Whoever else it still hears answered a moment ago.
		s := w.n[i].state(i)
		for sh := range s.rows {
			if s.rows[sh].peer != xIDs[e.other] && !s.rows[sh].suspect {
				s.rows[sh].heard = xLate
			}
		}
		x.applyTo(w, i, s, event{kind: evTick}, xLate)
	case xPull:
		x.pull(w, i, int(e.shard), int(e.other))
	case xElect:
		x.elect(w, i, e.answers)
	case xPromote:
		w.faults++
		x.apply(w, i, event{kind: evStand, shards: shardSet(e.mask), forced: true, floor: w.n[i].floor()}, xT0)
	case xHandOver:
		w.faults++
		x.handOver(w, i, int(e.shard), int(e.other))
	case xClaim:
		in := w.info(int(e.other))
		if e.stale {
			in = w.prev[e.other]
		}
		x.apply(w, i, event{kind: evClaim, peer: xIDs[e.other], claims: in.claims()}, xT0)
	}
}

func newWorld() xworld {
	var w xworld
	for i := range w.n {
		n := &w.n[i]
		n.up, n.primary, n.persists = true, i == 0, i != 0
		for sh := 0; sh < xShards; sh++ {
			n.journal[sh] = 1
			n.disk[sh].peer = -1
			if i == 0 {
				n.rows[sh] = xrow{role: roleOwner, epoch: 1, peer: -1}
				n.how[sh] = byVote
			} else {
				n.rows[sh] = xrow{role: roleFollowing, epoch: 1, peer: 0}
				n.disk[sh].epoch = 1
			}
		}
	}
	for i := range w.n {
		w.prev[i] = w.info(i)
	}
	return w
}

// events enumerates what can happen next within the fault budget.
func (w *xworld) events(budget int) (out []xevent) {
	fault := int(w.faults) < budget
	for i := range w.n {
		n, at := &w.n[i], int8(i)
		if !n.up {
			// The rejoin probe is answered by any subset of the others; only a
			// configured primary sends one.
			for mask := uint8(0); mask < 1<<xNodes; mask++ {
				ok := mask&(1<<i) == 0 && (n.primary || mask == 0)
				for j := range w.n {
					ok = ok && (mask&(1<<j) == 0 || w.n[j].up)
				}
				if ok {
					out = append(out, xevent{kind: xRestart, node: at, mask: mask})
				}
			}
			continue
		}
		if fault {
			out = append(out, xevent{kind: xCrash, node: at})
		}
		owns := false
		var lapsed [xNodes]bool // one lapse a followed peer, not one a row
		for sh, r := range n.rows {
			owns = owns || r.role == roleOwner
			if r.role != roleFollowing || r.peer < 0 {
				continue
			}
			alive := w.n[r.peer].up
			if alive {
				out = append(out, xevent{kind: xPull, node: at, shard: int8(sh), other: r.peer})
			}
			// A lapse on a dead peer is no fault.
			if !r.suspect && !lapsed[r.peer] && (fault || !alive) {
				lapsed[r.peer] = true
				out = append(out, xevent{kind: xLapse, node: at, other: r.peer, free: !alive})
			}
		}
		if len(n.suspects()) > 0 {
			for c := 0; c < 9; c++ {
				e, others, ok := xevent{kind: xElect, node: at}, 1, true
				for j := range w.n {
					if j == i {
						continue
					}
					a := int8(c / others % 3)
					// A handshake of a step earlier counts only where it differs.
					ok = ok && (a != 1 || w.n[j].up) && (a != 2 || w.prev[j].up && w.prev[j] != w.info(j))
					e.answers[j] = a
					others *= 3
				}
				if ok {
					out = append(out, e)
				}
			}
		}
		for mask := uint8(1); fault && n.persists && mask < 1<<xShards; mask++ {
			out = append(out, xevent{kind: xPromote, node: at, mask: mask})
		}
		for sh, r := range n.rows {
			for f := range w.n {
				if fr := w.n[f].rows[sh]; fault && r.role == roleOwner && f != i && w.n[f].up && w.n[f].persists && fr.role == roleFollowing && fr.peer == at {
					out = append(out, xevent{kind: xHandOver, node: at, shard: int8(sh), other: int8(f)})
				}
			}
		}
		for j := range w.n {
			if j == i || !owns {
				continue
			}
			now := w.info(j)
			if now.owned != [xShards]uint16{} {
				out = append(out, xevent{kind: xClaim, node: at, other: int8(j)})
			}
			if w.prev[j].owned != [xShards]uint16{} && w.prev[j] != now {
				out = append(out, xevent{kind: xClaim, node: at, other: int8(j), stale: true})
			}
		}
	}
	return out
}

func (n *xnode) floor() (e uint64) {
	for _, j := range n.journal {
		e = max(e, uint64(j))
	}
	return e
}

// pull is one pull of shard sh by node i from p, which serves its log
// whatever its role: a puller under a newer epoch is a claim on p, an
// equal epoch an answered pull, an older one a snapshot bootstrap.
func (x *explorer) pull(w *xworld, i, sh, p int) {
	mine, theirs := uint64(w.n[i].rows[sh].epoch), uint64(w.n[p].journal[sh])
	if mine > theirs {
		x.apply(w, p, event{kind: evClaim, peer: xIDs[i], claims: []Claim{{Shard: sh, Epoch: mine}}}, xT0)
		return
	}
	x.apply(w, i, event{kind: evPulled, shard: sh, epoch: theirs, lease: xTTL}, xT0)
	if mine < theirs {
		x.apply(w, i, event{kind: evInstalled, shard: sh, epoch: theirs, peer: xIDs[p]}, xT0)
	}
}

// elect is Follower.tryFailover: the last probe of the peers gone quiet,
// then the ballots.
func (x *explorer) elect(w *xworld, i int, answers [xNodes]int8) {
	n := &w.n[i]
	for _, sh := range n.suspects() {
		if p := n.rows[sh].peer; p >= 0 && answers[p] == 1 {
			x.apply(w, i, event{kind: evProbed, peer: xIDs[p], claims: w.info(int(p)).claims()}, xT0)
		}
	}
	shards := n.suspects()
	if len(shards) == 0 {
		return
	}
	var ballots []peerInfo
	for j, a := range answers {
		switch a {
		case 1:
			ballots = append(ballots, w.info(j).ballot(j))
		case 2:
			ballots = append(ballots, w.prev[j].ballot(j))
		}
	}
	x.apply(w, i, event{kind: evStand, shards: shards, ballots: ballots, nodes: xNodes, floor: n.floor()}, xT0)
}

// handOver is the detector and the seam: shard sh stays degraded on its
// owner i past the TTL, the follower f stands for it on the seam's word,
// and i records the hand-over.
func (x *explorer) handOver(w *xworld, i, sh, f int) {
	x.apply(w, i, event{kind: evHealth, shard: sh, down: true}, xT0)
	if fx := x.apply(w, i, event{kind: evHealth, shard: sh, down: true}, xLate); len(fx) != 1 || fx[0].kind != fxHandOver {
		x.fail("shard %d degraded past the TTL on %s asked for %v, want one hand-over", sh, xIDs[i], fx)
		return
	}
	x.apply(w, f, event{kind: evStand, shards: []int{sh}, forced: true, floor: w.n[f].floor()}, xT0)
	x.apply(w, i, event{kind: evHandedOver, shard: sh, peer: xIDs[f], epoch: uint64(w.n[f].rows[sh].epoch)}, xT0)
}

// restart is node.Open: a configured primary first reads what its
// directory says survived and asks whoever answers (mask) for their claims
// — lostAtBoot — and comes up following the shards it lost and owning the
// rest, or, having lost none, owning everything; anyone else reloads its
// rows from the persisted columns only. Every journal reopens under its
// next generation. A node whose winner does not answer as an owner does
// not come up at all (AwaitPrimary).
func (x *explorer) restart(w *xworld, i int, mask uint8) {
	n := &w.n[i]
	cols := make([]replState, xShards)
	for sh, d := range n.disk {
		cols[sh] = replState{Epoch: uint64(d.epoch), DemotedFrom: uint64(d.demoted), Promoted: d.role == roleOwner, Primary: xpeer(d.peer)}
	}
	var lost []Superseded
	if n.primary {
		var journals []uint64
		for _, j := range n.journal {
			journals = append(journals, uint64(j))
		}
		var ballots []peerInfo
		for j := range w.n {
			if mask&(1<<j) != 0 {
				ballots = append(ballots, w.info(j).ballot(j))
			}
		}
		if lost = lostAtBoot(cols, journals, ballots); len(lost) > 0 {
			if j := xindex(lost[0].Winner); !w.n[j].up || w.info(int(j)).owned == [xShards]uint16{} {
				return
			}
		}
	}
	for sh := range n.journal {
		n.journal[sh]++
	}
	n.up = true
	if n.primary && len(lost) == 0 {
		n.persists = false
		for sh := range n.rows {
			n.rows[sh] = xrow{role: roleOwner, epoch: n.journal[sh], peer: -1}
			n.how[sh] = byReload
		}
		return
	}
	follow := xIDs[0]
	if n.primary {
		n.persists, follow = true, lost[0].Winner
	}
	var st state
	for sh, d := range n.disk {
		r, resync := bootRow(cols[sh], uint64(n.journal[sh]), follow)
		if r.epoch < uint64(d.epoch) {
			x.fail("%s restarted shard %d at epoch %d, below its persisted %d", xIDs[i], sh, r.epoch, d.epoch)
		}
		if resync {
			n.disk[sh].epoch = small(r.epoch)
		}
		n.how[sh] = byNobody
		if r.role == roleOwner {
			n.how[sh] = byReload
		}
		st.rows = append(st.rows, r)
	}
	n.absorb(st)
	// Follower.Rejoin.
	var rest uint8 = 1<<xShards - 1
	for _, c := range lost {
		rest &^= 1 << c.Shard
		x.apply(w, i, event{kind: evRejoin, shard: c.Shard, peer: c.Winner, epoch: uint64(n.journal[c.Shard]), claims: []Claim{c.Claim}}, xT0)
	}
	if n.primary {
		x.apply(w, i, event{kind: evStand, shards: shardSet(rest), forced: true, floor: n.floor()}, xT0)
	}
}

// explore runs the search to maxDepth or fixpoint within the fault budget
// and returns the shortest trace to the first violation (nil when there is
// none), with the counts the tests print.
func (x *explorer) explore(maxDepth, budget int) (trace []string, states, transitions, depth int) {
	// A visited state's place in a trace: who it came from, by what.
	type origin struct {
		from int32
		by   xevent
	}
	start := newWorld()
	seen := map[xkey]int32{start.canonical(): 0}
	origins := []origin{{from: -1}}
	frontier := []xworld{start}
	for depth = 0; depth < maxDepth && len(frontier) > 0; depth++ {
		var next []xworld
		for _, from := range frontier {
			at := seen[from.canonical()]
			for _, ev := range from.events(budget) {
				w := from
				x.run(&w, ev)
				for i := range w.prev {
					w.prev[i] = from.info(i)
				}
				transitions++
				x.check(&w)
				if x.violation != "" {
					trace = []string{ev.String()}
					for ; origins[at].from >= 0; at = origins[at].from {
						trace = append([]string{origins[at].by.String()}, trace...)
					}
					return trace, len(seen), transitions, depth + 1
				}
				key := w.canonical()
				if _, ok := seen[key]; !ok {
					seen[key] = int32(len(origins))
					origins = append(origins, origin{from: at, by: ev})
					if depth+1 < maxDepth { // the last level is checked, never expanded
						next = append(next, w)
					}
				}
			}
		}
		frontier = next
	}
	return nil, len(seen), transitions, depth
}

var updateTraces = flag.Bool("update-traces", false, "rewrite testdata/*.trace from the explorer's findings")

// TestExploreOwnership holds the five invariants on every state reachable
// within the depth and the fault budget: at most one node writable per
// (shard, epoch); a row's epoch never decreases, across restart too; a
// node comes to own a shard only through a stand that covered it; a node
// fenced out of an epoch is never writable at it again; an event that
// names shards moves the role of no row outside them.
func TestExploreOwnership(t *testing.T) {
	depth, budget := 12, 3
	if testing.Short() {
		depth, budget = 40, 2 // to fixpoint
	}
	start := time.Now()
	x := &explorer{step: step}
	trace, states, transitions, reached := x.explore(depth, budget)
	t.Logf("explored %d states, %d transitions, depth %d, %d faults a trace, in %s; %d transitions ended with two owners of one (shard, epoch), one of them unasked (a forced stand, a reloaded owner): open, pinned below",
		states, transitions, reached, budget, time.Since(start).Round(time.Millisecond), x.unasked)
	if x.violation != "" {
		t.Fatalf("%s\nafter:\n  %s", x.violation, strings.Join(trace, "\n  "))
	}
	if reached < depth {
		t.Logf("fixpoint: nothing new after depth %d", reached)
	}
}

// heldTo compares a finding with its committed trace.
func heldTo(t *testing.T, path, violation string, trace []string) {
	t.Helper()
	got := violation + "\n" + strings.Join(trace, "\n") + "\n"
	if *updateTraces {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("shortest trace:\n%s\nwant (%s):\n%s", got, path, want)
	}
}

// TestExploreCatchesWholeNodeClaim gives the explorer the parent commit's
// rule — any newer claim fences the whole node — in place of the
// per-shard one, and holds its shortest failing trace to the committed
// one: the explorer has teeth, and the defect has a reproducer.
func TestExploreCatchesWholeNodeClaim(t *testing.T) {
	x := &explorer{step: func(s state, ev event, now time.Time) (state, []effect) {
		if ev.kind == evClaim {
			var newest uint64
			for _, c := range ev.claims {
				newest = max(newest, c.Epoch)
			}
			ev.claims = nil
			for sh := range s.rows {
				ev.claims = append(ev.claims, Claim{Shard: sh, Epoch: newest})
			}
		}
		return step(s, ev, now)
	}}
	trace, _, _, _ := x.explore(6, 3)
	if x.violation == "" {
		t.Fatal("the whole-node claim rule passed every invariant")
	}
	heldTo(t, "testdata/whole_node_claim.trace", x.violation, trace)
}

// TestExploreUnaskedOwners is the open defect the explorer found in
// behaviour inherited from the parent: two nodes writable on one shard
// under one epoch, one of them there without asking anyone. A forced stand
// and a restart both pick "one past everything I have seen", so two of
// them — or one and an election — can pick the same number; the detector's
// equal-epoch tie-break fences one of the two a heartbeat later. No row of
// a table closes it (an epoch would have to carry its claimant, a format
// change), so the shortest trace of each kind is pinned and the case is
// skipped, not narrowed away.
func TestExploreUnaskedOwners(t *testing.T) {
	for kind, path := range map[uint8]string{byWord: "testdata/forced_stands.trace", byReload: "testdata/reloaded_owner.trace"} {
		x := &explorer{step: step, strict: kind}
		trace, _, _, _ := x.explore(8, 3)
		if x.violation == "" {
			t.Fatalf("no unasked owner shares a (shard, epoch) within depth 8: %s is closed — delete it and strike the defect from ROADMAP", path)
		}
		heldTo(t, path, x.violation, trace)
	}
	t.Skip("open (ROADMAP, Open defects): an owner nobody voted for can share its epoch with another")
}

// TestRoleStepIsPure: role.go imports nothing it could do I/O, read a
// clock behind the caller's back, lock or spawn with.
func TestRoleStepIsPure(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "role.go", nil, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range f.Imports {
		switch path, _ := strconv.Unquote(imp.Path.Value); path {
		case "net/http", "os", "sync", "context", "sync/atomic", "log":
			t.Errorf("role.go imports %s", path)
		}
	}
}
