package history

import (
	"fmt"
	"sort"
)

// RecordKey names one stored execution: the (application, code version,
// run id) triple the paper's experiment-management infrastructure keys
// multi-execution performance data by. Version may be empty.
type RecordKey struct {
	App     string
	Version string
	RunID   string
}

// String renders the key in the store's display form,
// app[-version]-runid — the naming the CLI tools print.
func (k RecordKey) String() string {
	if k.Version == "" {
		return k.App + "-" + k.RunID
	}
	return k.App + "-" + k.Version + "-" + k.RunID
}

// less orders keys by (App, Version, RunID).
func (k RecordKey) less(o RecordKey) bool {
	if k.App != o.App {
		return k.App < o.App
	}
	if k.Version != o.Version {
		return k.Version < o.Version
	}
	return k.RunID < o.RunID
}

// sortKeys orders a key slice deterministically.
func sortKeys(keys []RecordKey) {
	sort.Slice(keys, func(i, j int) bool { return keys[i].less(keys[j]) })
}

// ScanIssue reports one entry a scan could not turn into a valid record —
// an unreadable file, corrupt JSON, or a record failing validation. Scans
// skip such entries instead of failing the whole store.
type ScanIssue struct {
	// Name is the backend-level name of the offending entry (a file
	// basename for the filesystem backend).
	Name string
	// Err is what went wrong.
	Err error
}

func (i ScanIssue) String() string { return fmt.Sprintf("%s: %v", i.Name, i.Err) }

// ScanEntry is one raw stored record yielded by Backend.Scan. The Store
// decodes, validates and indexes it; backends never interpret the bytes.
type ScanEntry struct {
	// Name identifies the entry for diagnostics (file basename, map key).
	Name string
	// Data is the encoded record.
	Data []byte
}

// Backend is the storage engine beneath Store. It moves opaque encoded
// records addressed by RecordKey; encoding, validation, indexing and
// querying live in the Store façade, so a backend only needs durable
// byte storage. Implementations must be safe for concurrent use.
type Backend interface {
	// Name identifies the backend for diagnostics ("fs:<dir>", "mem").
	Name() string
	// Put stores data under key, overwriting any previous value.
	Put(key RecordKey, data []byte) error
	// Get returns the encoded record for key. A missing key yields an
	// error satisfying errors.Is(err, os.ErrNotExist).
	Get(key RecordKey) ([]byte, error)
	// Delete removes key. Deleting a missing key yields an error
	// satisfying errors.Is(err, os.ErrNotExist).
	Delete(key RecordKey) error
	// Scan enumerates every stored record. Entries that cannot be read
	// are reported in issues and skipped, never failing the scan; the
	// returned error is reserved for whole-store failures.
	Scan() ([]ScanEntry, []ScanIssue, error)
}
