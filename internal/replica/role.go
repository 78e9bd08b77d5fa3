package replica

import (
	"cmp"
	"slices"
	"time"
)

// role is what this node is to one shard's keyspace.
type role uint8

const (
	roleFollowing  role = iota // replicates the shard from peer; public writes are refused
	roleOwner                  // owns the keyspace under epoch — the only writable role
	roleHandedOver             // owned it and handed it to peer through the store's seam; one-way until restart
	roleFenced                 // owned it under demoted until peer's claim under epoch superseded it
)

var roleNames = [...]string{"following", "owner", "handedOver", "fenced"}

func (r role) String() string { return roleNames[r] }

// row is one shard's line of a node's ownership table: the only record of
// who owns the shard as far as this node knows. epoch is the newest
// generation of the shard the node has seen — the one it owns, the one it
// has replicated through applied, or the one that took the shard from it.
// demoted is the generation it owned and lost: a write is then refused
// with the fencing error naming it (not a retryable 503), and the next
// bootstrap quarantines what that generation wrote. The next stand
// clears it. A following row holds the lease on its own peer: heard is
// that peer's last answer, suspect that the silence since outlasted the
// window — per row, because two rows can follow two peers, and one's
// answers say nothing about the other. downSince is when the store first
// reported an owned shard degraded (zero while it serves).
type row struct {
	role      role
	epoch     uint64
	applied   uint64
	peer      string
	demoted   uint64
	lease     leaseState
	heard     time.Time
	suspect   bool
	downSince time.Time
}

// bootRow rebuilds a row from what survives a restart: its persisted
// columns, the generation the shard's journal reopened under, and the peer
// the node was told to follow. An owned shard restarts into a fresh
// journal generation (StartWAL bumps the epoch), so the row is re-synced
// to claim the epoch of the journal it owns; resync says the columns
// changed and want writing.
func bootRow(rs replState, journal uint64, follow string) (r row, resync bool) {
	r = row{epoch: rs.Epoch, applied: rs.Applied, peer: follow, demoted: rs.DemotedFrom}
	if rs.Lease != nil {
		r.lease = *rs.Lease
	}
	if rs.Promoted {
		r.role, r.peer = roleOwner, rs.Primary
		if journal != 0 && journal != rs.Epoch {
			r.epoch, resync = journal, true
		}
	}
	return r, resync
}

// columns is the row as STATE.json records it; ok is false for a
// hand-over, which is in memory only — one-way until restart, where the
// file's last word (owner) is what the start-up handshake reconciles.
func (r row) columns() (rs replState, ok bool) {
	rs = replState{Epoch: r.epoch, Applied: r.applied, Promoted: r.role == roleOwner, Primary: r.peer, DemotedFrom: r.demoted}
	if r.lease != (leaseState{}) {
		rs.Lease = &r.lease
	}
	return rs, r.role != roleHandedOver
}

// state is a node's table: its rows, and ttl, the window after which a
// followed peer's silence makes it suspect. A value is never modified once
// published; step copies the rows it changes.
type state struct {
	self string
	rows []row
	ttl  time.Duration
	// seen is the newest epoch any event has mentioned — a claim, a ballot,
	// a pull's answer. A stand goes past it: a row at rejoin still holds the
	// position it will pull from, not the epoch of the claim it lost to.
	seen uint64
}

// following reports the shards this node replicates.
func (s state) following() (shards []int) {
	for i, r := range s.rows {
		if r.role == roleFollowing {
			shards = append(shards, i)
		}
	}
	return shards
}

// suspects reports the followed shards whose peer has gone quiet.
func (s state) suspects() (shards []int) {
	for i, r := range s.rows {
		if r.role == roleFollowing && r.suspect {
			shards = append(shards, i)
		}
	}
	return shards
}

// owned is the node's claim: the shards it owns, each under its epoch.
func (s state) owned() (claims []Claim) {
	for i, r := range s.rows {
		if r.role == roleOwner {
			claims = append(claims, Claim{Shard: i, Epoch: r.epoch})
		}
	}
	return claims
}

type eventKind uint8

const (
	evArm        eventKind = iota // a driver starts watching: this node is peer (when set), the configured window is lease (when set), the lease starts now
	evPulled                      // shard's pull was answered under epoch, granting lease
	evApplied                     // shard's apply loop folded through applied
	evInstalled                   // a snapshot of peer's shard at (epoch, applied) was installed
	evTick                        // the monitor's heartbeat: has the lease lapsed?
	evProbed                      // the suspected peer answered the last probe with its claims
	evStand                       // stand for shards: forced (operator, seam) or on ballots
	evClaim                       // peer was seen claiming claims — by probe, or by pulling under one
	evHealth                      // the store reports shard down or serving
	evHandedOver                  // peer took shard under epoch through the seam
	evRejoin                      // start-up found peer owning shard (claims); epoch is our journal's
)

var eventNames = [...]string{"arm", "pulled", "applied", "installed", "tick", "probed", "stand", "claim", "health", "handedOver", "rejoin"}

func (k eventKind) String() string { return eventNames[k] }

// event is one observation a driver hands to step; which fields matter is
// per kind, above.
type event struct {
	kind    eventKind
	shard   int
	shards  []int
	peer    string
	epoch   uint64
	applied uint64
	lease   time.Duration
	claims  []Claim
	down    bool
	// A stand: forced skips the ballot checks; ballots are the electorate's
	// answers, nodes its size (this node included), floor the highest
	// generation of any local journal.
	forced  bool
	ballots []peerInfo
	nodes   int
	floor   uint64
}

type effectKind uint8

const (
	fxPersist   effectKind = iota // write shard's columns: durably to STATE.json, or only its position to POSITION
	fxBumpEpoch                   // raise shard's journal and log to epoch
	fxHandOver                    // ask the store to hand shard to its best follower
	fxElect                       // the lease lapsed: probe the followed peer, then the electorate
)

// effect is one thing step wants done; the driver executes them in order.
type effect struct {
	kind    effectKind
	shard   int
	epoch   uint64
	durable bool
}

// transitions is every way a row changes role. step supplies the guards —
// which rows an event covers, how the epochs compare — but moves a role
// only through move, so nothing outside this list does.
var transitions = [...]struct {
	from role
	on   eventKind
	to   role
}{
	{roleFollowing, evStand, roleOwner},
	{roleFenced, evStand, roleOwner},
	{roleOwner, evClaim, roleFenced},
	{roleOwner, evHandedOver, roleHandedOver},
	{roleFenced, evHandedOver, roleHandedOver},
	{roleOwner, evRejoin, roleFollowing},
	{roleFollowing, evRejoin, roleFollowing},
}

func move(r *row, on eventKind) bool {
	for _, t := range transitions {
		if t.from == r.role && t.on == on {
			r.role = t.to
			return true
		}
	}
	return false
}

// step is every decision about ownership: the table and one observation
// in, the next table and what to do about it out. It reads no clock, does
// no I/O and takes no lock, so the explorer can enumerate it.
func step(s state, ev event, now time.Time) (state, []effect) {
	s.rows = append([]row(nil), s.rows...)
	var fx []effect
	persist := func(shard int, durable bool) {
		fx = append(fx, effect{kind: fxPersist, shard: shard, durable: durable})
	}
	// An answer from peer renews the lease of every row that follows it.
	hear := func(peer string) {
		for i := range s.rows {
			if r := &s.rows[i]; r.role == roleFollowing && r.peer == peer {
				r.heard, r.suspect = now, false
			}
		}
	}
	s.seen = max(s.seen, ev.epoch)
	for _, c := range ev.claims {
		s.seen = max(s.seen, c.Epoch)
	}
	for _, b := range ev.ballots {
		s.seen = max(s.seen, b.Epoch)
	}

	switch ev.kind {
	case evArm:
		s.self, s.ttl = cmp.Or(ev.peer, s.self), cmp.Or(ev.lease, s.ttl)
		for i := range s.rows {
			s.rows[i].heard = now
		}

	case evPulled:
		if s.rows[ev.shard].role != roleFollowing {
			return s, nil // a pull that raced the stand
		}
		hear(s.rows[ev.shard].peer)
		if ev.lease <= 0 {
			break
		}
		// The grant is the cluster's window, recorded on every shard it changes.
		s.ttl = ev.lease
		grant := leaseState{Epoch: ev.epoch, TTLMS: ev.lease.Milliseconds()}
		for i := range s.rows {
			if s.rows[i].lease != grant {
				s.rows[i].lease = grant
				persist(i, true)
			}
		}

	case evApplied:
		if r := &s.rows[ev.shard]; r.role == roleFollowing {
			r.applied = ev.applied
			// Unsynced: this write sits between the apply and the pull that
			// acknowledges it, and a lost position only costs a re-pull.
			persist(ev.shard, false)
		}

	case evInstalled:
		if r := &s.rows[ev.shard]; r.role == roleFollowing {
			// The position jumps to the image's; the demotion record is the
			// shard's own and survives the jump.
			*r = row{role: roleFollowing, epoch: ev.epoch, applied: ev.applied, peer: ev.peer, demoted: r.demoted}
			persist(ev.shard, true)
			hear(ev.peer)
		}

	case evTick:
		for i := range s.rows {
			if r := &s.rows[i]; r.role == roleFollowing {
				r.suspect = now.Sub(r.heard) > s.ttl
			}
		}
		if len(s.suspects()) > 0 {
			fx = append(fx, effect{kind: fxElect})
		}

	case evProbed:
		// Suspicion is circumstantial — a starved process misses pulls as
		// readily as a dead primary's survivor does. A peer that answers and
		// still owns what we follow from it is not dead: that row's lease
		// renews.
		for _, c := range ev.claims {
			if r := &s.rows[c.Shard]; r.role == roleFollowing && r.peer == ev.peer && c.Epoch >= r.epoch {
				r.heard, r.suspect = now, false
			}
		}

	case evStand:
		shards := ev.shards
		if !ev.forced {
			shards = s.elected(&ev, now, persist)
		}
		// The new generation strictly dominates every one this node has
		// seen — replicated, journaled or claimed by someone else — so the
		// claim orders after the old owner and after any earlier life of
		// this node.
		epoch := max(ev.floor, s.seen)
		for _, r := range s.rows {
			epoch = max(epoch, r.epoch)
		}
		epoch++
		for _, i := range shards {
			if r := &s.rows[i]; move(r, evStand) {
				r.epoch, r.demoted, r.suspect = epoch, 0, false
				fx = append(fx, effect{kind: fxBumpEpoch, shard: i, epoch: epoch})
				persist(i, true)
			}
		}

	case evClaim:
		for _, c := range ev.claims {
			r := &s.rows[c.Shard]
			// An equal-epoch split claim: exactly one of the two yields, the
			// larger URL, mirroring the election's smallest-URL win.
			tie := c.Epoch == r.epoch && s.self != "" && ev.peer != "" && ev.peer < s.self
			if (c.Epoch > r.epoch || tie) && move(r, evClaim) {
				r.demoted, r.epoch, r.peer = r.epoch, c.Epoch, ev.peer
				// Recorded, so a restart finds the shard lost rather than
				// owned at the journal's next generation.
				persist(c.Shard, true)
			}
		}

	case evHealth:
		r := &s.rows[ev.shard]
		switch {
		case r.role != roleOwner:
		case !ev.down:
			r.downSince = time.Time{}
		case r.downSince.IsZero():
			r.downSince = now
		case now.Sub(r.downSince) >= s.ttl:
			// Down for a whole lease: not a blip. Asked again every tick
			// until the row says the shard was handed over.
			fx = append(fx, effect{kind: fxHandOver, shard: ev.shard})
		}

	case evHandedOver:
		if r := &s.rows[ev.shard]; move(r, evHandedOver) {
			r.epoch, r.peer = max(r.epoch, ev.epoch), ev.peer
		}

	case evRejoin:
		r := &s.rows[ev.shard]
		owned := r.role == roleOwner
		if move(r, evRejoin) {
			if owned {
				r.demoted = r.epoch
			} else if r.demoted == 0 {
				r.demoted = ev.epoch // an original primary's shard: its own journal's generation
			}
			r.peer, r.heard = ev.peer, now
			persist(ev.shard, true)
		}
	}
	return s, fx
}

// elected runs the ballot checks of an unforced stand and returns the
// shards this node won: those of ev.shards whose peer it finds suspect,
// or none.
//
//   - A ballot that owns one of them under an epoch no older than the
//     row's ends the round: the shard has a live owner, and the row follows
//     it from here on.
//   - Otherwise the node may stand only if every visible peer also finds a
//     peer it follows suspect (one that owns nothing and still hears
//     everyone vetoes), it is the most caught up (ties broken by smallest
//     URL — deterministic, so concurrent rounds pick the same winner), and
//     it sees a majority of the electorate (a partitioned minority never
//     stands).
func (s *state) elected(ev *event, now time.Time, persist func(int, bool)) (shards []int) {
	for _, i := range ev.shards {
		if r := s.rows[i]; r.role == roleFollowing && r.suspect {
			shards = append(shards, i)
		}
	}
	if len(shards) == 0 {
		return nil
	}
	var mine uint64
	for _, r := range s.rows {
		mine += r.applied
	}
	for _, b := range ev.ballots {
		adopted := false
		for _, c := range b.Owned {
			if r := &s.rows[c.Shard]; slices.Contains(shards, c.Shard) && c.Epoch >= r.epoch {
				if r.peer != b.id {
					r.peer = b.id
					persist(c.Shard, true)
				}
				r.heard, r.suspect = now, false // a grace period against the new owner
				adopted = true
			}
		}
		if adopted {
			return nil
		}
		if !b.Suspect && len(b.Owned) == 0 {
			return nil
		}
		if b.AppliedSeq > mine || (b.AppliedSeq == mine && b.id < s.self) {
			return nil
		}
	}
	if len(ev.ballots)+1 < ev.nodes/2+1 {
		return nil
	}
	return shards
}

// lostAtBoot is the start-up rejoin decision, over what survives a restart
// — each shard's persisted columns (zero where the node never kept any)
// and the generation its journal was left under — and the claims of
// whoever answered the probe. A shard is lost to the newest claim past its
// journal's generation: a stand covered it while this node was down. That
// test works once. The journal's generation grows with every restart and
// the kept shards' with the stand that follows, so from the first rejoin
// on what tells a lost shard from a kept one is the record of it: a row
// persisted as following stays lost whatever the journal says — to the
// peer the columns name, or to a claim newer than the row.
func lostAtBoot(cols []replState, journals []uint64, ballots []peerInfo) []Superseded {
	newest := make(map[int]Superseded)
	for i, rs := range cols {
		if !rs.Promoted && rs.Primary != "" {
			newest[i] = Superseded{Claim: Claim{Shard: i, Epoch: rs.Epoch}, Winner: rs.Primary}
		}
	}
	for _, b := range ballots {
		for _, c := range b.Owned {
			// A claim on a shard the directory does not hold (yet) is kept:
			// the driver checks the range once the store is open.
			l, known := newest[c.Shard]
			if !known && c.Shard < len(journals) {
				l.Epoch = journals[c.Shard]
			}
			if c.Epoch > l.Epoch {
				newest[c.Shard] = Superseded{Claim: c, Winner: b.url}
			}
		}
	}
	lost := make([]Superseded, 0, len(newest))
	for _, l := range newest {
		lost = append(lost, l)
	}
	slices.SortFunc(lost, func(a, b Superseded) int { return cmp.Compare(a.Shard, b.Shard) })
	return lost
}
