package replica

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// The replica's two disk decoders: a shard's persisted row
// (replica/STATE.json) and a primary's follower registry (PEERS.json).
// Whatever bytes a crash or a disk leaves there, reading them never
// panics, and what they read as is stable: written back by this tree and
// read again, it is the same row or list.

// stateSeeds are rows as writeState writes them, of every shape a table
// persists, plus a torn one.
func stateSeeds(t testing.TB) [][]byte {
	dir := t.TempDir()
	var seeds [][]byte
	for _, st := range []replState{
		{},
		{Epoch: 3, Applied: 41, Primary: "http://127.0.0.1:7251"},
		{Epoch: 7, Promoted: true},
		{Epoch: 9, Applied: 12, Primary: "http://p", DemotedFrom: 8, Lease: &leaseState{Epoch: 9, TTLMS: 3000}},
	} {
		if err := writeState(dir, st); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(statePath(dir))
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, data, data[:len(data)/2])
	}
	return append(seeds, []byte(`{"epoch":1e400}`), []byte(`{"lease":null,"promoted":"yes"}`))
}

func FuzzLoadState(f *testing.F) {
	for _, seed := range stateSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.MkdirAll(filepath.Dir(statePath(dir)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(statePath(dir), data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := loadState(dir)
		if err != nil {
			t.Fatalf("loadState of a readable file = %v", err)
		}
		if err := writeState(dir, st); err != nil {
			t.Fatal(err)
		}
		back, err := loadState(dir)
		st.Version = stateVersion
		if err != nil || !reflect.DeepEqual(back, st) {
			t.Fatalf("row %+v written and read back as %+v, %v", st, back, err)
		}
	})
}

func FuzzLoadPeers(f *testing.F) {
	dir := f.TempDir()
	for _, ids := range [][]string{nil, {}, {"http://127.0.0.1:7252"}, {"http://a", "http://b", "ü <&>"}} {
		path := filepath.Join(dir, peersFileName)
		savePeers(path, ids)
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)/2])
	}
	f.Add([]byte(`[null, 1]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), peersFileName)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		ids := loadPeers(path)
		savePeers(path, ids)
		if back := loadPeers(path); !reflect.DeepEqual(back, ids) {
			t.Fatalf("peers %q written and read back as %q", ids, back)
		}
	})
}

// FuzzLoadPosition: whatever bytes POSITION holds beside a seed
// STATE.json, loadState does not panic, moves STATE.json's position only
// forward and only to a record of its epoch that checks, leaves every
// other column as STATE.json has it, and reads back what it read once it
// is written by this tree.
func FuzzLoadPosition(f *testing.F) {
	seeds := stateSeeds(f)
	// seeds[2] is {Epoch: 3, Applied: 41}, seeds[0] the zero row.
	f.Add(uint8(2), encodePosition(3, 45))
	f.Add(uint8(2), encodePosition(3, 40))
	f.Add(uint8(2), encodePosition(2, 99))
	f.Add(uint8(2), encodePosition(3, 45)[:positionSize/2])
	f.Add(uint8(0), encodePosition(0, 7))
	f.Add(uint8(0), []byte("garbage garbage garb"))
	f.Fuzz(func(t *testing.T, which uint8, pos []byte) {
		dir := t.TempDir()
		if err := os.MkdirAll(filepath.Dir(statePath(dir)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(statePath(dir), seeds[int(which)%len(seeds)], 0o644); err != nil {
			t.Fatal(err)
		}
		durable, err := loadState(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(positionPath(dir), pos, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := loadState(dir)
		if err != nil {
			t.Fatalf("loadState of readable files = %v", err)
		}
		if st.Applied != durable.Applied {
			epoch, applied, ok := decodePosition(pos)
			if !ok || epoch != durable.Epoch || applied != st.Applied || applied < durable.Applied {
				t.Fatalf("position %d taken over STATE.json's %d at epoch %d from %x", st.Applied, durable.Applied, durable.Epoch, pos)
			}
		}
		moved := st
		moved.Applied = durable.Applied
		if !reflect.DeepEqual(moved, durable) {
			t.Fatalf("POSITION changed more than the position: %+v, STATE.json %+v", st, durable)
		}
		if err := writeState(dir, st); err != nil {
			t.Fatal(err)
		}
		if err := writePosition(dir, st.Epoch, st.Applied); err != nil {
			t.Fatal(err)
		}
		back, err := loadState(dir)
		st.Version = stateVersion
		if err != nil || !reflect.DeepEqual(back, st) {
			t.Fatalf("row %+v written and read back as %+v, %v", st, back, err)
		}
	})
}
