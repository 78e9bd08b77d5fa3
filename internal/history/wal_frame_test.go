package history

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"math/big"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// The journal frame: one framing and one decoder for the segment files
// and the replication pull. These tests pin the v2 payload, keep the v1
// payload readable, and fuzz the decoder the follower feeds with bytes
// from the network.

func mustFrame(t testing.TB, e WALEntry) []byte {
	t.Helper()
	frame, err := EncodeWALFrame(e)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// v1Frame frames e the way the previous build's WAL.Append did: the
// JSON encoding of the entry, Data in base64.
func v1Frame(t testing.TB, e WALEntry) []byte {
	t.Helper()
	payload, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	return frameOf(payload)
}

// frameOf puts the header on an arbitrary payload.
func frameOf(payload []byte) []byte {
	frame := make([]byte, walFrameHeader, walFrameHeader+len(payload))
	binary.BigEndian.PutUint32(frame, uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(payload))
	return append(frame, payload...)
}

func TestWALFrameRoundTrip(t *testing.T) {
	rec, err := json.MarshalIndent(sampleRecord("r1"), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	entries := []WALEntry{
		{Op: walOpPut, App: "poisson", Version: "A", RunID: "r1", Data: rec},
		{Op: walOpDelete, App: "poisson", Version: "A", RunID: "r1"},
		{Op: walOpPut, App: "π\x00", RunID: strings.Repeat("r", 300), Data: []byte{0, '{', 0xff}},
		{Op: walOpDelete, App: "", Version: "", RunID: ""},
	}
	var seg []byte
	for _, e := range entries {
		seg = append(seg, mustFrame(t, e)...)
	}
	got, good, bad := DecodeWALFrames(seg)
	if bad != "" || good != len(seg) {
		t.Fatalf("decoded %d of %d bytes: %s", good, len(seg), bad)
	}
	if !reflect.DeepEqual(got, entries) {
		t.Fatalf("decode(encode(entries)) = %+v, want %+v", got, entries)
	}
	// The record bytes travel raw and are read back by slicing: no copy,
	// no base64.
	first := mustFrame(t, entries[0])
	if !bytes.HasSuffix(first, rec) {
		t.Error("a put frame does not end in the record's bytes as given")
	}
	one, _, _ := DecodeWALFrames(first)
	if &one[0].Data[0] != &first[len(first)-len(rec)] {
		t.Error("a decoded entry's Data is a copy, not a slice of the frame")
	}
	if v1 := v1Frame(t, entries[0]); len(first)*5 > len(v1)*4 {
		t.Errorf("v2 frame is %d bytes against v1's %d: the base64 saving is gone", len(first), len(v1))
	}
	if _, err := EncodeWALFrame(WALEntry{Op: "merge", App: "a", RunID: "r"}); err == nil {
		t.Error("an unknown op was framed")
	}
}

// TestDecodeWALPayloadV1: a payload written by the previous build — the
// JSON of a WALEntry — still decodes, in a segment that mixes versions.
func TestDecodeWALPayloadV1(t *testing.T) {
	put := WALEntry{Op: walOpPut, App: "a", Version: "v", RunID: "r1", Data: []byte("{\n  \"indented\": true\n}")}
	del := WALEntry{Op: walOpDelete, App: "a", RunID: "r1"}
	seg := append(v1Frame(t, put), mustFrame(t, del)...)
	seg = append(seg, v1Frame(t, del)...)
	got, good, bad := DecodeWALFrames(seg)
	if bad != "" || good != len(seg) {
		t.Fatalf("decoded %d of %d bytes: %s", good, len(seg), bad)
	}
	if want := []WALEntry{put, del, del}; !reflect.DeepEqual(got, want) {
		t.Fatalf("mixed-version segment = %+v, want %+v", got, want)
	}
	if _, _, bad := DecodeWALFrames(frameOf([]byte(`{"op":"merge","app":"a","run_id":"r"}`))); !strings.Contains(bad, "unknown op") {
		t.Errorf("v1 payload with an unknown op: %q", bad)
	}
}

// TestDecodeWALPayloadBad: a payload whose CRC holds but whose contents
// do not parse is a bad frame, never a panic or an over-read.
func TestDecodeWALPayloadBad(t *testing.T) {
	good := mustFrame(t, WALEntry{Op: walOpPut, App: "app", Version: "v", RunID: "run", Data: []byte("data")})[walFrameHeader:]
	if _, err := DecodeWALPayload(good); err != nil {
		t.Fatal(err)
	}
	pastEnd := append([]byte{walPayloadV2, walOpBytePut, 3, 'a', 'p', 'p', 1, 'v'}, 200, 1) // run id claims 200 bytes
	cases := map[string][]byte{
		"empty":                        {},
		"version only":                 {walPayloadV2},
		"unknown version":              append([]byte{3}, good[1:]...),
		"unknown op byte":              append([]byte{walPayloadV2, 9}, good[2:]...),
		"no key strings":               good[:2],
		"key cut short":                good[:4],
		"length prefix past the end":   pastEnd,
		"length prefix overflows":      {walPayloadV2, walOpBytePut, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f},
		"length prefix never ends":     {walPayloadV2, walOpBytePut, 0x80, 0x80},
		"v1 JSON cut short":            []byte(`{"op":"put","app":"a"`),
		"v1 JSON with the wrong shape": []byte(`{"op":7}`),
		"v1 JSON base64 that is not":   []byte(`{"op":"put","app":"a","run_id":"r","data":"!!"}`),
		"v1 JSON without an op":        []byte(`{}`),
		"JSON, but not an object":      []byte(`[1]`),
	}
	for name, payload := range cases {
		if e, err := DecodeWALPayload(payload); err == nil {
			t.Errorf("%s: decoded to %+v", name, e)
		}
		if es, good, bad := DecodeWALFrames(frameOf(payload)); bad == "" || good != 0 || len(es) != 0 {
			t.Errorf("%s: framed, it read as %d entries over %d bytes (%q)", name, len(es), good, bad)
		}
	}
}

// TestOpenReplaysV1Journal: testdata/wal-v1 is what the build before the
// v2 payload left behind — a segment of five JSON-payload frames (three
// puts, a delete, an overwrite) and the torn half of a sixth, written by
// that build's OpenStoreDurable/Save/Delete, beside the record files the
// same calls produced. Opening a store over the segment alone replays it
// into those files byte for byte and truncates the journal; the next
// journal is v2.
func TestOpenReplaysV1Journal(t *testing.T) {
	dir := t.TempDir()
	seg, err := os.ReadFile(filepath.Join("testdata", "wal-v1", "00000001.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if len(seg) < walFrameHeader+1 || seg[walFrameHeader] != '{' {
		t.Fatal("the fixture's first payload is not v1 JSON")
	}
	if err := os.MkdirAll(walDirOf(dir), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(walDirOf(dir), "00000001.wal"), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	st := openDurable(t, dir, DurableOptions{WAL: true})
	defer st.Close()
	rep := st.Recovery().WAL
	if rep == nil || rep.Entries != 5 || rep.Replayed != 2 || !rep.TornTail || len(rep.Corrupt) != 0 {
		t.Fatalf("replay report = %+v, want 5 entries, 2 replayed, torn tail, nothing corrupt", rep)
	}
	want, err := filepath.Glob(filepath.Join("testdata", "wal-v1", "records", "*.json"))
	if err != nil || len(want) != 2 {
		t.Fatalf("fixture records: %v, %v", want, err)
	}
	for _, path := range want {
		exp, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, filepath.Base(path)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, exp) {
			t.Errorf("%s: replayed file differs from the one the v1 build wrote", filepath.Base(path))
		}
	}
	if keys := st.Keys(); len(keys) != 2 || keys[0].RunID != "r1" || keys[1].RunID != "r3" {
		t.Errorf("store holds %v, want r1 and r3 (r2 deleted, r4 torn)", keys)
	}
	if r1, err := st.Load("poisson", "A", "r1"); err != nil || r1.Duration != 2 {
		t.Errorf("r1 = %+v, %v: want the overwrite (duration 2)", r1, err)
	}
	// Truncated: the old segment is gone, and what is journaled from here
	// on is v2.
	if err := st.Delete("poisson", "A", "r3"); err != nil {
		t.Fatal(err)
	}
	now, err := os.ReadFile(filepath.Join(walDirOf(dir), "00000001.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(now, mustFrame(t, WALEntry{Op: walOpDelete, App: "poisson", Version: "A", RunID: "r3"})) {
		t.Errorf("journal after the replay holds %d bytes, want exactly the one v2 delete frame", len(now))
	}
}

// returnedBytes is what a decoded entry holds on to.
func returnedBytes(e WALEntry) int {
	return len(e.App) + len(e.Version) + len(e.RunID) + len(e.Data)
}

// FuzzDecodeWALPayload: any bytes either decode or are refused — no
// panic, nothing returned that is larger than the input — and any entry
// survives encode → decode unchanged.
func FuzzDecodeWALPayload(f *testing.F) {
	put := WALEntry{Op: walOpPut, App: "poisson", Version: "A", RunID: "r1", Data: []byte("{\n  \"app\": \"poisson\"\n}")}
	del := WALEntry{Op: walOpDelete, App: "poisson", RunID: "r1"}
	for _, e := range []WALEntry{put, del} {
		f.Add(mustFrame(f, e)[walFrameHeader:], e.App, e.Version, e.RunID, e.Data, e.Op == walOpDelete)
		f.Add(v1Frame(f, e)[walFrameHeader:], e.App, e.Version, e.RunID, e.Data, e.Op == walOpDelete)
	}
	f.Add([]byte{walPayloadV2, walOpBytePut, 0xff, 0xff, 0xff, 0xff, 0x0f}, "a\xff", "", "\x00", []byte{}, false)
	// A v1 payload with invalid UTF-8 in a key: refused, not replayed with
	// each bad byte grown into U+FFFD — past thirteen of them the entry
	// outgrew its payload, which is how the fuzzer found it.
	for _, n := range []int{12, 16} {
		f.Add([]byte(`{"op":"delete","App":"`+strings.Repeat("\xbc", n)+`"}`), "", "", "", []byte{}, true)
	}
	f.Fuzz(func(t *testing.T, payload []byte, app, version, runID string, data []byte, del bool) {
		if e, err := DecodeWALPayload(payload); err == nil {
			if e.Op != walOpPut && e.Op != walOpDelete {
				t.Fatalf("decoded an entry with op %q", e.Op)
			}
			if n := returnedBytes(e); n > len(payload) {
				t.Fatalf("a %d-byte payload decoded to %d bytes of entry", len(payload), n)
			}
		}
		e := WALEntry{Op: walOpPut, App: app, Version: version, RunID: runID, Data: data}
		if del {
			e.Op = walOpDelete
		}
		if len(e.Data) == 0 {
			e.Data = nil // an absent and an empty payload tail are one thing
		}
		frame, err := EncodeWALFrame(e)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeWALPayload(frame[walFrameHeader:])
		if err != nil || !reflect.DeepEqual(got, e) {
			t.Fatalf("decode(encode(%+v)) = %+v, %v", e, got, err)
		}
	})
}

// FuzzDecodeWALFrames: the segment decoder — which also reads what a
// follower pulled off the network — stops at the first bad frame with a
// consistent account of how far it got, whatever the bytes.
func FuzzDecodeWALFrames(f *testing.F) {
	put := mustFrame(f, WALEntry{Op: walOpPut, App: "a", Version: "v", RunID: "r", Data: []byte("{}")})
	del := mustFrame(f, WALEntry{Op: walOpDelete, App: "a", Version: "v", RunID: "r"})
	f.Add(append(append([]byte{}, put...), del...))
	f.Add(put[:len(put)-1])
	f.Add(append(append([]byte{}, del...), 0, 0, 0, 9))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Add(append(v1Frame(f, WALEntry{Op: walOpPut, App: "a", RunID: "r", Data: []byte("{}")}), del[:9]...))
	f.Fuzz(func(t *testing.T, data []byte) {
		entries, good, bad := DecodeWALFrames(data)
		if good < 0 || good > len(data) {
			t.Fatalf("valid prefix %d of %d bytes", good, len(data))
		}
		if (bad == "") != (good == len(data)) {
			t.Fatalf("good %d of %d bytes but bad = %q", good, len(data), bad)
		}
		held := 0
		for _, e := range entries {
			held += walFrameHeader + returnedBytes(e)
		}
		if held > good {
			t.Fatalf("%d bytes of entries out of a %d-byte valid prefix", held, good)
		}
		again, g2, b2 := DecodeWALFrames(data[:good])
		if b2 != "" || g2 != good || !reflect.DeepEqual(again, entries) {
			t.Fatalf("the valid prefix re-decodes to %d entries over %d bytes (%q), first pass %d over %d", len(again), g2, b2, len(entries), good)
		}
	})
}

// FuzzReadWALEpoch: the fencing token is read strictly — a file is
// accepted exactly when its content, trimmed, is a decimal uint64, and
// reads back as that number (Sscanf("%d") took "7abc" and "7 8" for 7
// and "0x10" for 0) — and whatever writeWALEpoch writes reads back equal.
func FuzzReadWALEpoch(f *testing.F) {
	for _, s := range []string{"7\n", "0", " 12 \n", "7abc", "7 8", "0x10", "", "-1", "+5", "1_0",
		"18446744073709551615", "18446744073709551616", "007"} {
		f.Add([]byte(s), uint64(7))
	}
	dir := f.TempDir() // a worker runs its inputs one at a time
	f.Fuzz(func(t *testing.T, data []byte, epoch uint64) {
		if err := os.WriteFile(filepath.Join(dir, walEpochName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s := strings.TrimSpace(string(data))
		want, ok := new(big.Int).SetString(s, 10)
		ok = ok && strings.Trim(s, "0123456789") == "" && want.IsUint64()
		got, err := readWALEpoch(dir)
		if (err == nil) != ok || ok && got != want.Uint64() {
			t.Fatalf("epoch file %q reads as %d, %v", data, got, err)
		}
		if err := writeWALEpoch(osFS{}, dir, epoch); err != nil {
			t.Fatal(err)
		}
		if got, err := readWALEpoch(dir); err != nil || got != epoch {
			t.Fatalf("epoch %d written reads back as %d, %v", epoch, got, err)
		}
	})
}
