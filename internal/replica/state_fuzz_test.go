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
		if err := writeState(dir, st, true); err != nil {
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
		if err := writeState(dir, st, true); err != nil {
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
