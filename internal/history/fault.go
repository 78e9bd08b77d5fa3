package history

import (
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// ErrInjected is the sentinel every fault a Faults injects wraps. Tests
// and retry layers classify injected failures with
// errors.Is(err, ErrInjected).
var ErrInjected = errors.New("injected fault")

// BackendError marks an error as coming from the storage engine beneath
// the Store façade — an I/O failure, an injected fault — as opposed to a
// caller error (invalid record, bad key). The diagnosis service uses the
// distinction to enter degraded mode on storage trouble without treating
// every bad request as an outage.
//
// The wrapper is classification only: Error() returns the underlying
// message unchanged, so CLI output and log lines read exactly as before.
type BackendError struct {
	// Op is the backend operation that failed: "put", "get", "delete",
	// "scan".
	Op  string
	Err error
}

func (e *BackendError) Error() string { return e.Err.Error() }

// Unwrap keeps errors.Is working through the wrapper (os.ErrNotExist,
// ErrInjected, syscall errnos).
func (e *BackendError) Unwrap() error { return e.Err }

// IsBackendError reports whether err originated in a storage backend.
func IsBackendError(err error) bool {
	var be *BackendError
	return errors.As(err, &be)
}

// IsTransient reports whether err is backend trouble, which the server's
// and each shard's breaker count: an injected fault, or a backend I/O
// failure that is not a definitive miss — never a validation error.
func IsTransient(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrInjected) {
		return true
	}
	var be *BackendError
	if errors.As(err, &be) {
		// A missing record is a definitive answer, not a fault.
		return !errors.Is(err, os.ErrNotExist)
	}
	return false
}

// FaultConfig parameterizes a fault injector (Faults). Each rate is a
// probability in [0, 1], drawn per call from a hash of the seed and the
// call — never a wall clock or a shared sequence — so a fixed Seed
// reproduces the exact fault schedule.
type FaultConfig struct {
	Seed int64
	// ErrRate fails a create, rename, remove, read, file sync or
	// directory sync with an injected I/O error.
	ErrRate float64
	// TornWriteRate fails a write once its first half has landed: the
	// torn journal frame or staged record file the commit must survive.
	TornWriteRate float64
	// ENOSPCRate fails a create or a write (its first half landed) as a
	// full device would (wraps syscall.ENOSPC).
	ENOSPCRate float64
	// Latency is added to every file sync, directory sync and read, where
	// the device is waited on; for soak runs, not unit tests.
	Latency time.Duration
}

// FaultCounters counts what an injector drew for and injected, so tests
// can prove faults actually happened.
type FaultCounters struct {
	Ops        uint64 `json:"ops"`
	Injected   uint64 `json:"injected"`
	TornWrites uint64 `json:"torn_writes"`
	ENOSPC     uint64 `json:"enospc"`
}

// Faults is the store's fault injector: the fsys over the real disk that
// a shard's record directory and journal write through when
// DurableOptions.Faults hands it one, failing, tearing, filling and
// slowing calls on a seeded schedule. The store arms it once it is open,
// so recovery runs on the real disk. Safe for concurrent use.
//
// A draw is keyed by (seed, call kind, stable name, n), n counting that
// kind on that name. The stable name is the path below the store, except
// for a CreateTemp file, whose path is random: there it is its directory
// and a hash of its first write's bytes, and its create is drawn at that
// write; nothing before it is drawn for — a spare's reopen, or its
// removal unused. So the files a commit stages on several goroutines
// draw the same faults however those are scheduled, and whether each was
// created for the commit or made ahead as a spare (a journal segment is
// named by its number either way). Counts are kept for every name
// drawn for: an injector is for test and chaos runs.
type Faults struct {
	osFS   // mkdir, and a file's mode, truncate, seek and close, pass through
	hook   faultHook
	mu     sync.Mutex
	cfg    FaultConfig
	root   string            // names are relative to it; "" until armed
	calls  map[string]uint64 // per call kind and stable name, the draws so far
	temps  map[string]string // by path, each CreateTemp file's stable name ("" until written)
	counts FaultCounters
}

// faultHook is a test's hold on a Faults (the crash-point recorder): it
// sees each call first and may fail it, then each call that succeeded,
// and each fault drawn — one at a time, under the injector's lock.
type faultHook interface {
	beforeCall(op fsOp) error
	afterCall(op fsOp)
	onFault(op fsOp, name string, n uint64)
}

// fsOp is one call through the seam — create, createtemp, open, write,
// sync, rename, remove, syncdir or read — and its path: a file's own for a
// file's call and, once it succeeded, an open's; to is a rename's new one.
type fsOp struct{ kind, path, to string }

// NewFaults returns an unarmed injector drawing from cfg.
func NewFaults(cfg FaultConfig) *Faults {
	return &Faults{cfg: cfg, calls: map[string]uint64{}, temps: map[string]string{}}
}

// SetConfig swaps the fault rates at runtime — an outage starting
// (ErrRate: 1) and healing (ErrRate: 0) without rebuilding the store. The
// seed and the counts stay.
func (fs *Faults) SetConfig(cfg FaultConfig) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	cfg.Seed = fs.cfg.Seed
	fs.cfg = cfg
}

// Counters snapshots what the injector drew for and injected.
func (fs *Faults) Counters() FaultCounters {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.counts
}

// arm starts the draws, naming paths relative to root.
func (fs *Faults) arm(root string) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.root = root
}

// NewFaultBackend returns b, when it is an *FSBackend, writing and
// reading through an armed injector drawing from cfg. All that is left of
// the backend wrapper the injector replaced, it is kept because the
// benchmark module's decorator test calls it.
func NewFaultBackend(b Backend, cfg FaultConfig) Backend {
	if fb, ok := b.(*FSBackend); ok {
		f := NewFaults(cfg)
		f.arm(fb.dir)
		fb.fs = f
	}
	return b
}

// do makes one call: shown to the hook, drawn for once armed (data is a
// write's bytes), delayed where the device is waited on, made — an open
// names its file in op —, and shown to the hook again once it succeeded.
func (fs *Faults) do(op *fsOp, data []byte, call func() error) error {
	wait, err := fs.decide(*op, data)
	if err != nil {
		return err
	}
	time.Sleep(wait)
	if err := call(); err != nil {
		return err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	switch op.kind {
	case "createtemp":
		fs.temps[op.path] = ""
	case "rename", "remove":
		delete(fs.temps, op.path)
	}
	if fs.hook != nil {
		fs.hook.afterCall(*op)
	}
	return nil
}

// decide shows a call to the hook and, armed, draws for it by its stable
// name, returning how long the device keeps it waiting.
func (fs *Faults) decide(op fsOp, data []byte) (time.Duration, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.hook != nil {
		if err := fs.hook.beforeCall(op); err != nil {
			return 0, err
		}
	}
	name, temp := fs.temps[op.path]
	switch {
	case fs.root == "" || op.kind == "createtemp" || temp && name == "" && op.kind != "write":
		return 0, nil
	case !temp:
		name = op.path
	case name == "" && op.kind == "write":
		h := fnv.New64a()
		h.Write(data)
		name = filepath.Join(filepath.Dir(op.path), "#"+strconv.FormatUint(h.Sum64(), 16))
		fs.temps[op.path] = name
		if err := fs.draw(fsOp{kind: "create", path: op.path}, name); err != nil {
			return 0, err
		}
	}
	if err := fs.draw(op, name); err != nil {
		return 0, err
	}
	if op.kind == "sync" || op.kind == "syncdir" || op.kind == "read" {
		return fs.cfg.Latency, nil
	}
	return 0, nil
}

// draw decides one call on its name and makes the fault it injects, if
// any. Callers hold mu.
func (fs *Faults) draw(op fsOp, name string) error {
	if rel, err := filepath.Rel(fs.root, name); err == nil {
		name = rel
	}
	key := op.kind + "\x00" + name
	n := fs.calls[key]
	fs.calls[key]++
	fs.counts.Ops++
	var err error
	switch {
	case op.kind == "write" && fs.roll(key, n, 't') < fs.cfg.TornWriteRate:
		fs.counts.TornWrites++
		err = fmt.Errorf("torn write: %w", ErrInjected)
	case (op.kind == "write" || op.kind == "create") && fs.roll(key, n, 'f') < fs.cfg.ENOSPCRate:
		fs.counts.ENOSPC++
		err = fmt.Errorf("%w (%w)", syscall.ENOSPC, ErrInjected)
	case op.kind != "write" && fs.roll(key, n, 'e') < fs.cfg.ErrRate:
		err = ErrInjected
	default:
		return nil
	}
	fs.counts.Injected++
	if fs.hook != nil {
		fs.hook.onFault(op, name, n)
	}
	return &os.PathError{Op: op.kind, Path: op.path, Err: err}
}

// roll is a uniform draw in [0, 1) for fault of the nth call of key.
func (fs *Faults) roll(key string, n uint64, fault byte) float64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d %d %c %s", fs.cfg.Seed, n, fault, key)
	x := h.Sum64() // splitmix64's finalizer: FNV's high bits avalanche poorly
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return float64((x^x>>31)>>11) / (1 << 53)
}

func (fs *Faults) open(op fsOp, create func() (file, error)) (file, error) {
	var f file
	err := fs.do(&op, nil, func() (err error) {
		if f, err = create(); err == nil {
			op.path = f.Name()
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return &faultFile{f, fs}, nil
}

func (fs *Faults) CreateExcl(path string) (file, error) {
	return fs.open(fsOp{kind: "create", path: path}, func() (file, error) { return fs.osFS.CreateExcl(path) })
}

func (fs *Faults) CreateTemp(dir, pattern string) (file, error) {
	return fs.open(fsOp{kind: "createtemp", path: filepath.Join(dir, pattern)}, func() (file, error) { return fs.osFS.CreateTemp(dir, pattern) })
}

func (fs *Faults) OpenWrite(path string) (file, error) {
	return fs.open(fsOp{kind: "open", path: path}, func() (file, error) { return fs.osFS.OpenWrite(path) })
}

func (fs *Faults) OpenAppend(path string) (file, error) {
	return fs.open(fsOp{kind: "create", path: path}, func() (file, error) { return fs.osFS.OpenAppend(path) })
}

func (fs *Faults) Rename(oldpath, newpath string) error {
	return fs.do(&fsOp{kind: "rename", path: oldpath, to: newpath}, nil, func() error { return os.Rename(oldpath, newpath) })
}

func (fs *Faults) Remove(path string) error {
	return fs.do(&fsOp{kind: "remove", path: path}, nil, func() error { return os.Remove(path) })
}

func (fs *Faults) SyncDir(dir string) error {
	return fs.do(&fsOp{kind: "syncdir", path: dir}, nil, func() error { return fs.osFS.SyncDir(dir) })
}

func (fs *Faults) ReadFile(path string) (data []byte, err error) {
	err = fs.do(&fsOp{kind: "read", path: path}, nil, func() (err error) { data, err = os.ReadFile(path); return err })
	return data, err
}

// faultFile is a file a Faults opened.
type faultFile struct {
	file
	fs *Faults
}

// Write lands the first half of p before the call is decided, so a
// failed write is a torn one.
func (f *faultFile) Write(p []byte) (int, error) {
	half, err := f.file.Write(p[:len(p)/2])
	if err != nil {
		return half, err
	}
	rest := 0
	err = f.fs.do(&fsOp{kind: "write", path: f.Name()}, p, func() (err error) {
		rest, err = f.file.Write(p[half:])
		return err
	})
	return half + rest, err
}

func (f *faultFile) Sync() error {
	return f.fs.do(&fsOp{kind: "sync", path: f.Name()}, nil, f.file.Sync)
}
