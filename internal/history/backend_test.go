package history

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"
	"testing"
)

// backendsUnderTest returns a fresh instance of every Backend
// implementation; the conformance suite below runs against each.
func backendsUnderTest(t *testing.T) map[string]Backend {
	t.Helper()
	fs, err := NewFSBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Backend{
		"fs":  fs,
		"mem": NewMemBackend(),
	}
}

func encoded(t *testing.T, runID string) []byte {
	t.Helper()
	data, err := json.MarshalIndent(sampleRecord(runID), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestBackendConformance is the shared contract: put/get round trips,
// overwrite, delete, not-found errors, scans, and keys whose components
// contain the separator character.
func TestBackendConformance(t *testing.T) {
	for name, b := range backendsUnderTest(t) {
		t.Run(name, func(t *testing.T) {
			key := RecordKey{App: "poisson", Version: "A", RunID: "r1"}

			// Missing keys: Get and Delete report os.ErrNotExist.
			if _, err := b.Get(key); !errors.Is(err, os.ErrNotExist) {
				t.Errorf("Get(missing) = %v, want ErrNotExist", err)
			}
			if err := b.Delete(key); !errors.Is(err, os.ErrNotExist) {
				t.Errorf("Delete(missing) = %v, want ErrNotExist", err)
			}

			// Round trip.
			data := encoded(t, "r1")
			if err := b.Put(key, data); err != nil {
				t.Fatal(err)
			}
			got, err := b.Get(key)
			if err != nil || string(got) != string(data) {
				t.Fatalf("Get after Put = %v (len %d, want %d)", err, len(got), len(data))
			}

			// Overwrite.
			data2 := encoded(t, "r1")
			data2 = append(data2, '\n')
			if err := b.Put(key, data2); err != nil {
				t.Fatal(err)
			}
			if got, _ := b.Get(key); string(got) != string(data2) {
				t.Error("Put did not overwrite")
			}

			// Keys with '-' in components stay distinct (the pre-escaping
			// filename collision).
			kA := RecordKey{App: "a-b", Version: "", RunID: "c"}
			kB := RecordKey{App: "a", Version: "b", RunID: "c"}
			dA, dB := encoded(t, "cA"), encoded(t, "cB")
			if err := b.Put(kA, dA); err != nil {
				t.Fatal(err)
			}
			if err := b.Put(kB, dB); err != nil {
				t.Fatal(err)
			}
			if got, err := b.Get(kA); err != nil || string(got) != string(dA) {
				t.Errorf("dashed key A clobbered: %v", err)
			}
			if got, err := b.Get(kB); err != nil || string(got) != string(dB) {
				t.Errorf("dashed key B clobbered: %v", err)
			}

			// Scan sees all three.
			entries, issues, err := b.Scan()
			if err != nil || len(issues) != 0 {
				t.Fatalf("Scan = %v issues %v", err, issues)
			}
			if len(entries) != 3 {
				t.Errorf("Scan yields %d entries, want 3", len(entries))
			}
			for _, e := range entries {
				if e.Name == "" || len(e.Data) == 0 {
					t.Errorf("scan entry incomplete: %+v", e)
				}
			}

			// Delete removes exactly one.
			if err := b.Delete(kA); err != nil {
				t.Fatal(err)
			}
			if _, err := b.Get(kA); !errors.Is(err, os.ErrNotExist) {
				t.Errorf("Get after Delete = %v", err)
			}
			if _, err := b.Get(kB); err != nil {
				t.Errorf("Delete removed the wrong key: %v", err)
			}
			entries, _, _ = b.Scan()
			if len(entries) != 2 {
				t.Errorf("Scan after delete yields %d entries, want 2", len(entries))
			}
		})
	}
}

// TestBackendConcurrency hammers each backend from many goroutines; run
// under -race it proves the implementations are data-race free.
func TestBackendConcurrency(t *testing.T) {
	for name, b := range backendsUnderTest(t) {
		t.Run(name, func(t *testing.T) {
			const workers = 8
			const perWorker = 10
			var wg sync.WaitGroup
			errs := make(chan error, workers*perWorker*3)
			for w := 0; w < workers; w++ {
				w := w
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < perWorker; i++ {
						key := RecordKey{App: "app", Version: fmt.Sprintf("v%d", w), RunID: fmt.Sprintf("r%d", i)}
						data := encoded(t, key.RunID)
						if err := b.Put(key, data); err != nil {
							errs <- err
							continue
						}
						if _, err := b.Get(key); err != nil {
							errs <- err
						}
						if _, _, err := b.Scan(); err != nil {
							errs <- err
						}
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
			entries, issues, err := b.Scan()
			if err != nil || len(issues) != 0 {
				t.Fatalf("final scan: %v, issues %v", err, issues)
			}
			if len(entries) != workers*perWorker {
				t.Errorf("final scan yields %d entries, want %d", len(entries), workers*perWorker)
			}
		})
	}
}

// TestStoreConformance runs the store façade over every backend:
// identical semantics regardless of the engine beneath.
func TestStoreConformance(t *testing.T) {
	for name, b := range backendsUnderTest(t) {
		t.Run(name, func(t *testing.T) {
			st, err := NewStoreWith(b)
			if err != nil {
				t.Fatal(err)
			}
			for _, id := range []string{"r1", "r2"} {
				if err := st.Save(sampleRecord(id)); err != nil {
					t.Fatal(err)
				}
			}
			other := sampleRecord("r1")
			other.Version = "B"
			if err := st.Save(other); err != nil {
				t.Fatal(err)
			}

			if st.Len() != 3 {
				t.Errorf("Len = %d", st.Len())
			}
			names, err := st.List()
			if err != nil || len(names) != 3 {
				t.Errorf("List = %v, %v", names, err)
			}
			recs, err := st.LoadAll("poisson", "A")
			if err != nil || len(recs) != 2 {
				t.Errorf("LoadAll(A) = %d, %v", len(recs), err)
			}
			got, err := st.Load("poisson", "B", "r1")
			if err != nil || got.Version != "B" {
				t.Errorf("Load = %+v, %v", got, err)
			}
			hits, err := st.Query("poisson", "", ResultFilter{State: "true"})
			if err != nil || len(hits) != 3 {
				t.Errorf("Query = %d hits, %v", len(hits), err)
			}
			counts, err := st.PersistentBottlenecks("poisson", "", 3)
			if err != nil || len(counts) != 1 {
				t.Errorf("PersistentBottlenecks = %v, %v", counts, err)
			}
			if err := st.Delete("poisson", "A", "r2"); err != nil {
				t.Fatal(err)
			}
			if st.Len() != 2 {
				t.Errorf("Len after delete = %d", st.Len())
			}
			// Records survive a fresh façade over the same backend.
			st2, err := NewStoreWith(b)
			if err != nil {
				t.Fatal(err)
			}
			if st2.Len() != 2 {
				t.Errorf("reopened Len = %d, keys %v", st2.Len(), st2.Keys())
			}
		})
	}
}

// TestStoreConcurrentAccess drives concurrent Save/Load/Query/List
// through the façade over both backends; under -race this is the
// concurrency-safety proof for the index.
func TestStoreConcurrentAccess(t *testing.T) {
	for name, b := range backendsUnderTest(t) {
		t.Run(name, func(t *testing.T) {
			st, err := NewStoreWith(b)
			if err != nil {
				t.Fatal(err)
			}
			const writers = 4
			const readers = 4
			const perWriter = 8
			var wg sync.WaitGroup
			errs := make(chan error, writers*perWriter+readers*perWriter)
			for w := 0; w < writers; w++ {
				w := w
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < perWriter; i++ {
						rec := sampleRecord(fmt.Sprintf("w%d-r%d", w, i))
						if err := st.Save(rec); err != nil {
							errs <- err
						}
					}
				}()
			}
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < perWriter; i++ {
						if _, err := st.Query("poisson", "A", ResultFilter{State: "true"}); err != nil {
							errs <- err
						}
						if _, err := st.LoadAll("poisson", ""); err != nil {
							errs <- err
						}
						if _, err := st.List(); err != nil {
							errs <- err
						}
						if _, err := st.PersistentBottlenecks("poisson", "A", 1); err != nil {
							errs <- err
						}
						st.Keys()
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
			if st.Len() != writers*perWriter {
				t.Errorf("Len = %d, want %d", st.Len(), writers*perWriter)
			}
			// Every record is loadable and interned: repeated loads
			// return the same decoded copy.
			for w := 0; w < writers; w++ {
				for i := 0; i < perWriter; i++ {
					id := fmt.Sprintf("w%d-r%d", w, i)
					a, err := st.Load("poisson", "A", id)
					if err != nil {
						t.Fatal(err)
					}
					bb, _ := st.Load("poisson", "A", id)
					if a != bb {
						t.Fatalf("record %s not interned", id)
					}
				}
			}
		})
	}
}

// TestFSBackendEscaping pins the escaped filename scheme FORMATS.md
// documents.
func TestFSBackendEscaping(t *testing.T) {
	cases := []struct {
		key  RecordKey
		name string
	}{
		{RecordKey{App: "poisson", Version: "A", RunID: "run1"}, "poisson-A-run1.json"},
		{RecordKey{App: "poisson", Version: "", RunID: "run1"}, "poisson--run1.json"},
		{RecordKey{App: "a-b", Version: "", RunID: "c"}, "a%2Db--c.json"},
		{RecordKey{App: "a", Version: "b", RunID: "c"}, "a-b-c.json"},
		{RecordKey{App: "x%y", Version: "1", RunID: "r"}, "x%25y-1-r.json"},
		{RecordKey{App: "e/vil", Version: "", RunID: "r"}, "e%2Fvil--r.json"},
	}
	for _, c := range cases {
		if got := fileName(c.key); got != c.name {
			t.Errorf("fileName(%v) = %q, want %q", c.key, got, c.name)
		}
	}
}

// TestFSBackendPutCleansUpTmp checks that a failed rename does not leave
// a stray temp file behind.
func TestFSBackendPutCleansUpTmp(t *testing.T) {
	dir := t.TempDir()
	b, err := NewFSBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Force the rename to fail by making the destination an occupied
	// directory.
	key := RecordKey{App: "app", Version: "v", RunID: "r"}
	dest := fileName(key)
	if err := os.MkdirAll(dir+"/"+dest+"/occupied", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := b.Put(key, []byte("{}")); err == nil {
		t.Fatal("Put into a blocked destination succeeded")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != dest {
			t.Errorf("stray file left after failed Put: %s", e.Name())
		}
	}
}
