package replica

import (
	"sort"
	"sync"
	"time"
)

// defaultRingBytes bounds one shard log's in-memory frame ring. The
// journal itself is truncated at every open and compacted at rotation,
// so the ring is the only frame history the primary can serve; a
// follower that falls further behind than this re-bootstraps from a
// snapshot instead.
const defaultRingBytes = 8 << 20

// frameRec is one retained frame — length, CRC and payload exactly as
// the journal wrote them — and its sequence number within the current
// epoch.
type frameRec struct {
	seq   uint64
	frame []byte
}

// followerAck is one follower's registry entry: the highest sequence it
// reported applied, and when it last pulled.
type followerAck struct {
	ack  uint64
	last time.Time
}

// shardLog is one shard's replication state on the primary: a bounded
// ring of recent journal frames, the follower registry, and a notify
// channel both long-polling followers and the semi-sync write gate wait
// on. Appends arrive from the WAL's OnAppend hook (under the journal
// lock, in order); everything else comes from HTTP handlers.
type shardLog struct {
	shard int

	mu        sync.Mutex
	epoch     uint64
	frames    []frameRec
	floor     uint64 // highest seq evicted from the ring (ring starts at floor+1)
	head      uint64 // last appended seq (0 = none this epoch)
	bytes     int64
	maxBytes  int64
	followers map[string]*followerAck
	// everAttached latches once any follower registers: the write gate
	// only degrades to async on a primary no follower has EVER joined —
	// once one has, losing it refuses writes instead of silently
	// accepting unreplicated ones a later promotion would drop.
	everAttached bool
	lastPull     time.Time     // when any follower last pulled (lease age)
	notify       chan struct{} // closed and replaced on every append or ack
	clock        func() time.Time
}

func newShardLog(shard int, epoch uint64) *shardLog {
	return &shardLog{
		shard:     shard,
		epoch:     epoch,
		maxBytes:  defaultRingBytes,
		followers: make(map[string]*followerAck),
		notify:    make(chan struct{}),
		clock:     time.Now,
	}
}

// bumpLocked wakes every waiter. Callers hold l.mu.
func (l *shardLog) bumpLocked() {
	close(l.notify)
	l.notify = make(chan struct{})
}

// append retains one journaled frame. Called from the WAL OnAppend hook
// with the bytes the journal wrote — the entry is not framed a second
// time, so every journaled frame is shipped and the shipped bytes are
// the durable ones. seq is the frame's sequence within the journal
// epoch, increasing by one per call.
func (l *shardLog) append(seq uint64, frame []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.frames = append(l.frames, frameRec{seq: seq, frame: frame})
	l.head = seq
	l.bytes += int64(len(frame))
	for l.bytes > l.maxBytes && len(l.frames) > 1 {
		l.bytes -= int64(len(l.frames[0].frame))
		l.floor = l.frames[0].seq
		l.frames = l.frames[1:]
	}
	l.bumpLocked()
}

// registerAck records a follower's applied position at pull time (the
// ack rides on the pull request, before any long-poll wait, so the
// write gate releases as soon as the follower comes back for more).
// Returns true the first time this id is seen — the primary persists
// new peers for post-crash rediscovery.
func (l *shardLog) registerAck(id string, ack uint64) (fresh bool) {
	if id == "" {
		return false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	fa := l.followers[id]
	if fa == nil {
		fa = &followerAck{}
		l.followers[id] = fa
		fresh = true
	}
	if ack > fa.ack {
		fa.ack = ack
	}
	fa.last = l.clock()
	l.lastPull = fa.last
	l.everAttached = true
	l.bumpLocked()
	return fresh
}

// setEpoch advances the log's fencing epoch without clearing the frame
// ring: sequence numbers keep counting across the bump (the journal's
// append counter is untouched), and pullers at the old epoch are
// redirected to a snapshot, which reports the new position. Wakes every
// waiter so stale long-polls re-evaluate.
func (l *shardLog) setEpoch(epoch uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if epoch <= l.epoch {
		return
	}
	l.epoch = epoch
	l.bumpLocked()
}

// lastPullAge returns milliseconds since any follower last pulled, or
// -1 when none ever has.
func (l *shardLog) lastPullAge() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.lastPull.IsZero() {
		return -1
	}
	return l.clock().Sub(l.lastPull).Milliseconds()
}

// waitLocked releases l.mu until the next append or ack, until deadline,
// or until done closes (nil never does), and reports whether the caller
// should look again: false once the deadline has passed or done closed.
// Callers hold l.mu, and hold it again on return.
func (l *shardLog) waitLocked(deadline time.Time, done <-chan struct{}) bool {
	remain := time.Until(deadline)
	if remain <= 0 {
		return false
	}
	ch := l.notify
	l.mu.Unlock()
	defer l.mu.Lock()
	t := time.NewTimer(remain)
	defer t.Stop()
	select {
	case <-ch:
	case <-t.C:
	case <-done:
		return false
	}
	return true
}

// pull answers one follower pull from position (epoch, from): the
// contiguous frames after from, capped at maxFrames — the header names
// the first one's sequence — or a snapshot demand when the position is
// unserveable. Blocks up to wait for new frames when already caught up;
// done (the puller's request context) cuts the wait short, so a vanished
// follower does not pin the handler for the full poll window.
func (l *shardLog) pull(epoch, from uint64, maxFrames int, wait time.Duration, done <-chan struct{}) (PullResponse, [][]byte) {
	deadline := time.Now().Add(wait)
	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		resp := PullResponse{Epoch: l.epoch, HeadSeq: l.head}
		if epoch != l.epoch || from < l.floor {
			resp.NeedSnapshot = true
			return resp, nil
		}
		var frames [][]byte
		for _, fr := range l.frames {
			if fr.seq <= from {
				continue
			}
			if frames == nil {
				resp.FirstSeq = fr.seq
			}
			frames = append(frames, fr.frame)
			if len(frames) >= maxFrames {
				break
			}
		}
		if frames != nil || !l.waitLocked(deadline, done) {
			return resp, frames
		}
	}
}

// quorumAckLocked returns the position the q-th most-caught-up fresh
// follower has applied — the highest seq known to be on at least q
// followers — and how many followers are fresh at all. With fewer than
// q fresh followers the returned ack is 0.
func (l *shardLog) quorumAckLocked(q int, window time.Duration) (uint64, int) {
	cutoff := l.clock().Add(-window)
	acks := make([]uint64, 0, len(l.followers))
	for _, fa := range l.followers {
		if fa.last.Before(cutoff) {
			continue
		}
		acks = append(acks, fa.ack)
	}
	if q < 1 {
		q = 1
	}
	if len(acks) < q {
		return 0, len(acks)
	}
	sort.Slice(acks, func(i, j int) bool { return acks[i] > acks[j] })
	return acks[q-1], len(acks)
}

// bestFollower returns the id of the most-caught-up follower seen
// within window — the failover seam's replica election.
func (l *shardLog) bestFollower(window time.Duration) (string, uint64, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	cutoff := l.clock().Add(-window)
	bestID, best, ok := "", uint64(0), false
	for id, fa := range l.followers {
		if fa.last.Before(cutoff) {
			continue
		}
		if !ok || fa.ack > best || (fa.ack == best && id < bestID) {
			bestID, best, ok = id, fa.ack, true
		}
	}
	return bestID, best, ok
}

// waitAck blocks until q followers seen within window have applied seq.
// It returns (true, _) on quorum ack; (false, attached) on timeout,
// where attached reports whether any follower was in the window at the
// end — the caller distinguishes "no follower yet" (degrade to async,
// unless one has EVER attached) from "quorum lagging" (refuse the
// write).
func (l *shardLog) waitAck(seq uint64, q int, timeout, window time.Duration) (acked, attached bool) {
	deadline := time.Now().Add(timeout)
	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		ack, n := l.quorumAckLocked(q, window)
		if n >= q && ack >= seq {
			return true, true
		}
		if n == 0 && !l.everAttached {
			// Nobody has ever attached: the gate degrades to async
			// immediately rather than stalling every write until the
			// first follower joins.
			return false, false
		}
		if !l.waitLocked(deadline, nil) {
			return false, true
		}
	}
}

// headSeq returns the last appended sequence.
func (l *shardLog) headSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.head
}

// stats snapshots the shard's gauges.
func (l *shardLog) stats() ShardReplStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := ShardReplStats{Shard: l.shard, Epoch: l.epoch, HeadSeq: l.head}
	for id, fa := range l.followers {
		fs := FollowerStats{ID: id, AckSeq: fa.ack}
		if l.head > fa.ack {
			fs.LagFrames = l.head - fa.ack
			// Bytes still unacked that the ring retains; a lag beyond the
			// ring floor reports the whole ring.
			for _, fr := range l.frames {
				if fr.seq > fa.ack {
					fs.LagBytes += int64(len(fr.frame))
				}
			}
		}
		out.Followers = append(out.Followers, fs)
	}
	sort.Slice(out.Followers, func(i, j int) bool { return out.Followers[i].ID < out.Followers[j].ID })
	return out
}
