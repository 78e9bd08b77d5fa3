package replica

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
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
// does: the entry framed once, by the journal's own encoder.
func appendEntry(l *shardLog, seq uint64, e history.WALEntry) {
	frame, err := history.EncodeWALFrame(e)
	if err != nil {
		panic(err)
	}
	l.append(seq, frame)
}

// TestShardLogRetainsJournalBytes: the ring holds the very bytes the
// journal wrote — the frame is encoded once, in WAL.Append — and a pull
// ships them untouched, so what a follower verifies and folds is what
// the primary made durable, byte for byte, and no journaled frame can be
// missing from the ring.
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
	var ring []byte
	for i, fr := range frames {
		if fr.seq != uint64(i+1) {
			t.Errorf("ring frame %d has seq %d", i+1, fr.seq)
		}
		ring = append(ring, fr.frame...)
	}
	if !bytes.Equal(ring, seg) {
		t.Errorf("ring frames (%d bytes) != segment file (%d bytes)", len(ring), len(seg))
	}

	// Over the wire: a header line, then the segment file's bytes.
	ts := httptest.NewServer(http.HandlerFunc(p.HandleWAL))
	defer ts.Close()
	u := fmt.Sprintf("%s?shard=0&epoch=%d&from=0&id=http://f", ts.URL, st.WAL().Epoch())
	raw, err := exchange(context.Background(), http.MethodGet, u, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var hdr PullResponse
	if _, err := decodeFramed(raw, &hdr); err != nil {
		t.Fatal(err)
	}
	_, body, _ := bytes.Cut(raw, []byte{'\n'})
	if hdr.FirstSeq != 1 || hdr.HeadSeq != 3 || hdr.NeedSnapshot {
		t.Errorf("pull header = %+v, want first_seq 1, head_seq 3", hdr)
	}
	if !bytes.Equal(body, seg) {
		t.Errorf("pull body (%d bytes) != segment file (%d bytes)", len(body), len(seg))
	}
	entries, good, bad := history.DecodeWALFrames(body)
	if bad != "" || good != len(seg) || len(entries) != 3 || entries[2].Op != history.WALOpDelete {
		t.Errorf("pull body decoded to %d entries over %d bytes (%q)", len(entries), good, bad)
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

	resp, frames := l.pull(3, 0, 512, 0, nil)
	if resp.NeedSnapshot || len(frames) != 3 || resp.FirstSeq != 1 || resp.HeadSeq != 3 {
		t.Fatalf("pull from 0 = %+v with %d frames, want 3 frames from 1, head 3", resp, len(frames))
	}
	for i, fr := range frames {
		want := fmt.Sprintf("r%d", i+1)
		if es, _, bad := history.DecodeWALFrames(fr); bad != "" || len(es) != 1 || es[0].RunID != want {
			t.Errorf("frame %d decodes to %+v (%q), want run %s", i, es, bad, want)
		}
	}

	resp, frames = l.pull(3, 2, 512, 0, nil)
	if len(frames) != 1 || resp.FirstSeq != 3 {
		t.Fatalf("pull from 2 = %+v with %d frames, want exactly frame 3", resp, len(frames))
	}

	// Caught up: no frames, no snapshot demand.
	resp, frames = l.pull(3, 3, 512, 0, nil)
	if resp.NeedSnapshot || len(frames) != 0 {
		t.Fatalf("caught-up pull = %+v with %d frames, want empty", resp, len(frames))
	}

	// Wrong epoch: the follower replicated a previous journal lifetime.
	if resp, _ = l.pull(2, 3, 512, 0, nil); !resp.NeedSnapshot {
		t.Fatal("epoch-mismatch pull did not demand a snapshot")
	}

	// maxFrames caps a single response.
	if _, frames = l.pull(3, 0, 2, 0, nil); len(frames) != 2 {
		t.Fatalf("capped pull returned %d frames, want 2", len(frames))
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
	if resp, _ := l.pull(1, l.floor-1, 512, 0, nil); !resp.NeedSnapshot {
		t.Fatal("pull below the ring floor did not demand a snapshot")
	}
	if resp, frames := l.pull(1, l.floor, 512, 0, nil); resp.NeedSnapshot || len(frames) == 0 || resp.FirstSeq != l.floor+1 {
		t.Fatalf("pull at the ring floor = %+v with %d frames, want frames from %d", resp, len(frames), l.floor+1)
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
	l.mu.Lock()
	ack, fresh := l.quorumAckLocked(1, time.Minute)
	l.mu.Unlock()
	if ack != 1 || fresh != 1 {
		t.Fatalf("quorumAckLocked(1) after a stale re-ack = (%d, %d), want (1, 1)", ack, fresh)
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
