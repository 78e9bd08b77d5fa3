package replica

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/history"
)

func entry(runID, data string) history.WALEntry {
	return history.WALEntry{Op: history.WALOpPut, App: "app", RunID: runID, Data: []byte(data)}
}

// appendEntry feeds the log one frame the way the journal's append hook
// does: the entry encoded once, with its CRC.
func appendEntry(l *shardLog, seq uint64, e history.WALEntry) {
	payload, err := json.Marshal(e)
	if err != nil {
		panic(err)
	}
	l.append(seq, payload, crc32.ChecksumIEEE(payload))
}

// TestShardLogRetainsJournalBytes: the ring holds the very bytes the
// journal wrote — the frame is encoded once, in WAL.Append — so what a
// follower verifies and folds is what the primary made durable, and no
// journaled frame can be missing from the ring.
func TestShardLogRetainsJournalBytes(t *testing.T) {
	dir := t.TempDir()
	st, err := history.OpenStoreDurable(dir, history.DurableOptions{Create: true, WAL: true})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPrimary(st, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range []string{"r1", "r2"} {
		if err := st.Save(&history.RunRecord{App: "app", Version: "v", RunID: run}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Delete("app", "v", "r1"); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	seg, err := os.ReadFile(filepath.Join(dir, history.WALDirName, "00000001.wal"))
	if err != nil {
		t.Fatal(err)
	}
	frames := p.logs[0].frames
	if len(frames) != 3 {
		t.Fatalf("ring holds %d frames, journal took 3 appends", len(frames))
	}
	for i, fr := range frames {
		n := binary.BigEndian.Uint32(seg)
		crc := binary.BigEndian.Uint32(seg[4:])
		payload := seg[8 : 8+n]
		seg = seg[8+n:]
		if fr.seq != uint64(i+1) || fr.crc != crc || !bytes.Equal(fr.payload, payload) {
			t.Errorf("frame %d: ring (seq %d, crc %08x, %d bytes) != journal (crc %08x, %d bytes)",
				i+1, fr.seq, fr.crc, len(fr.payload), crc, len(payload))
		}
		if crc32.ChecksumIEEE(fr.payload) != fr.crc {
			t.Errorf("frame %d: retained CRC does not cover the retained bytes", i+1)
		}
	}
	if len(seg) != 0 {
		t.Errorf("%d journal bytes beyond the frames the ring saw", len(seg))
	}
}

// TestShardLogPull pins the pull contract: contiguous frames after the
// requested position, NeedSnapshot on an epoch mismatch or a position
// below the ring floor, and an empty response when caught up.
func TestShardLogPull(t *testing.T) {
	l := newShardLog(0, 3)
	appendEntry(l, 1, entry("r1", `{"a":1}`))
	appendEntry(l, 2, entry("r2", `{"a":2}`))
	appendEntry(l, 3, entry("r3", `{"a":3}`))

	resp := l.pull(3, 0, 512, 0, nil)
	if resp.NeedSnapshot || len(resp.Frames) != 3 || resp.HeadSeq != 3 {
		t.Fatalf("pull from 0 = %+v, want 3 frames, head 3", resp)
	}
	for i, fr := range resp.Frames {
		if fr.Seq != uint64(i+1) {
			t.Errorf("frame %d has seq %d, want %d", i, fr.Seq, i+1)
		}
	}

	resp = l.pull(3, 2, 512, 0, nil)
	if len(resp.Frames) != 1 || resp.Frames[0].Seq != 3 {
		t.Fatalf("pull from 2 = %+v, want exactly frame 3", resp)
	}

	// Caught up: no frames, no snapshot demand.
	resp = l.pull(3, 3, 512, 0, nil)
	if resp.NeedSnapshot || len(resp.Frames) != 0 {
		t.Fatalf("caught-up pull = %+v, want empty", resp)
	}

	// Wrong epoch: the follower replicated a previous journal lifetime.
	if resp = l.pull(2, 3, 512, 0, nil); !resp.NeedSnapshot {
		t.Fatal("epoch-mismatch pull did not demand a snapshot")
	}

	// maxFrames caps a single response.
	if resp = l.pull(3, 0, 2, 0, nil); len(resp.Frames) != 2 {
		t.Fatalf("capped pull returned %d frames, want 2", len(resp.Frames))
	}
}

// TestShardLogEviction: the ring is bounded; a position below the floor
// demands a snapshot, one at or above it streams.
func TestShardLogEviction(t *testing.T) {
	l := newShardLog(0, 1)
	l.maxBytes = 64
	for i := uint64(1); i <= 10; i++ {
		appendEntry(l, i, entry("r", `{"pad":"xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"}`))
	}
	if l.floor == 0 {
		t.Fatal("no frames evicted from a 64-byte ring after 10 appends")
	}
	if resp := l.pull(1, l.floor-1, 512, 0, nil); !resp.NeedSnapshot {
		t.Fatal("pull below the ring floor did not demand a snapshot")
	}
	if resp := l.pull(1, l.floor, 512, 0, nil); resp.NeedSnapshot || len(resp.Frames) == 0 {
		t.Fatalf("pull at the ring floor = %+v, want frames", resp)
	}
}

// TestWaitAck pins the gate semantics: no follower → immediate
// (false, false); a lagging follower → (false, true) after the timeout;
// an acked position → (true, true). Acks are monotonic.
func TestWaitAck(t *testing.T) {
	l := newShardLog(0, 1)
	appendEntry(l, 1, entry("r1", `{}`))

	start := time.Now()
	acked, attached := l.waitAck(1, 1, time.Second, time.Minute)
	if acked || attached {
		t.Fatalf("waitAck with no followers = (%v, %v), want (false, false)", acked, attached)
	}
	if time.Since(start) > 500*time.Millisecond {
		t.Fatal("waitAck with no followers blocked instead of returning immediately")
	}

	l.registerAck("http://f1", 0)
	if acked, attached = l.waitAck(1, 1, 50*time.Millisecond, time.Minute); acked || !attached {
		t.Fatalf("waitAck with a lagging follower = (%v, %v), want (false, true)", acked, attached)
	}

	l.registerAck("http://f1", 1)
	if acked, _ = l.waitAck(1, 1, 50*time.Millisecond, time.Minute); !acked {
		t.Fatal("waitAck did not see the follower's ack")
	}

	// A stale (lower) ack never regresses the registry.
	l.registerAck("http://f1", 0)
	if ack, ok := l.maxAck(time.Minute); !ok || ack != 1 {
		t.Fatalf("maxAck after a stale re-ack = (%d, %v), want (1, true)", ack, ok)
	}
}

// TestWaitAckReleasedByAck: a blocked gate wakes the moment the ack
// arrives, not at its timeout.
func TestWaitAckReleasedByAck(t *testing.T) {
	l := newShardLog(0, 1)
	appendEntry(l, 1, entry("r1", `{}`))
	l.registerAck("http://f1", 0)

	go func() {
		time.Sleep(30 * time.Millisecond)
		l.registerAck("http://f1", 1)
	}()
	start := time.Now()
	if acked, _ := l.waitAck(1, 1, 5*time.Second, time.Minute); !acked {
		t.Fatal("gate not released by the ack")
	}
	if time.Since(start) > time.Second {
		t.Fatal("gate waited for its timeout despite the ack arriving")
	}
}

// TestBestFollower: the most-caught-up follower within the window wins;
// followers outside the window are invisible.
func TestBestFollower(t *testing.T) {
	l := newShardLog(0, 1)
	now := time.Now()
	l.clock = func() time.Time { return now }
	l.registerAck("http://f1", 3)
	l.registerAck("http://f2", 7)

	id, ack, ok := l.bestFollower(time.Minute)
	if !ok || id != "http://f2" || ack != 7 {
		t.Fatalf("bestFollower = (%q, %d, %v), want f2 at 7", id, ack, ok)
	}

	// f2 goes silent past the window: f1 is elected instead.
	l.clock = func() time.Time { return now.Add(2 * time.Minute) }
	l.registerAck("http://f1", 3)
	id, _, ok = l.bestFollower(time.Minute)
	if !ok || id != "http://f1" {
		t.Fatalf("bestFollower after f2 went stale = (%q, %v), want f1", id, ok)
	}
}

// TestShardLogStats: lag in frames and bytes per follower.
func TestShardLogStats(t *testing.T) {
	l := newShardLog(2, 1)
	appendEntry(l, 1, entry("r1", `{"a":1}`))
	appendEntry(l, 2, entry("r2", `{"a":2}`))
	l.registerAck("http://f1", 1)

	st := l.stats()
	if st.Shard != 2 || st.Epoch != 1 || st.HeadSeq != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if len(st.Followers) != 1 {
		t.Fatalf("stats followers = %+v, want one", st.Followers)
	}
	f := st.Followers[0]
	if f.AckSeq != 1 || f.LagFrames != 1 || f.LagBytes == 0 {
		t.Fatalf("follower stats = %+v, want ack 1, lag 1 frame with bytes", f)
	}
}
