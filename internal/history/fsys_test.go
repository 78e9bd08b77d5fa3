package history

import (
	"maps"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// fsOp is one call through the seam: its kind — create, write, sync,
// chmod, truncate, seek, close, rename, remove, mkdir, syncdir — and the
// path it acts on (a file call: the file's name when opened; a rename:
// path is the old name, to the new one).
type fsOp struct{ kind, path, to string }

// isSegment reports whether path names a journal segment.
func isSegment(path string) bool { return strings.HasSuffix(path, walSuffix) }

// testFS is the tests' one fsys: osFS on the real directory, each call
// shown to before first — an error fails the call without running it,
// except that a write's first half has landed when before sees it, so
// failing a write tears it — and, once it succeeded, to after. The hooks
// run one at a time under the recorder's lock (the stagers call from
// goroutines), so they need no lock of their own.
//
// It also keeps what a power loss would leave of the tree under root:
// per file, by identity — a rename carries the file's bytes — the bytes
// as of its last Sync; per directory the entries as of its last SyncDir;
// both starting from the tree as it stood when the recorder was made.
// durableImage writes that out.
type testFS struct {
	osFS
	dir  string
	root *fsNode

	mu     sync.Mutex
	before func(op fsOp) error
	after  func(op fsOp)
}

// fsNode is one file or directory of a testFS's tree.
type fsNode struct {
	path    string             // where it is now; "" once removed or replaced
	synced  []byte             // a file's bytes as of its last Sync
	entries map[string]*fsNode // a directory's entries now (nil for a file)
	kept    map[string]*fsNode // and as of its last SyncDir
}

// newTestFS records the tree under dir as it stands: every file and
// directory entry durable.
func newTestFS(t *testing.T, dir string) *testFS {
	t.Helper()
	nodes := map[string]*fsNode{}
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		n := &fsNode{path: path}
		if d.IsDir() {
			n.entries, n.kept = map[string]*fsNode{}, map[string]*fsNode{}
		} else if n.synced, err = os.ReadFile(path); err != nil {
			return err
		}
		if parent := nodes[filepath.Dir(path)]; path != dir {
			parent.entries[d.Name()], parent.kept[d.Name()] = n, n
		}
		nodes[path] = n
		return nil
	})
	if err != nil {
		t.Fatalf("record %s: %v", dir, err)
	}
	return &testFS{dir: dir, root: nodes[dir]}
}

// install puts fs under a record directory and a journal (either may be
// nil), the journal's open segment included.
func (fs *testFS) install(b *FSBackend, w *WAL) {
	if b != nil {
		b.fs = fs
	}
	if w != nil {
		w.fs = fs
		w.f = &testFile{file: w.f, fs: fs, node: fs.lookup(w.f.Name())}
	}
}

// lookup finds path's node; nil outside the tree or when absent.
func (fs *testFS) lookup(path string) *fsNode {
	rel, err := filepath.Rel(fs.dir, path)
	if err != nil || strings.HasPrefix(rel, "..") {
		return nil
	}
	n := fs.root
	for _, name := range strings.Split(rel, string(filepath.Separator)) {
		if name != "." && n != nil {
			n = n.entries[name]
		}
	}
	return n
}

// do runs one call through the hooks and, once it succeeded, the model's
// update.
func (fs *testFS) do(op fsOp, call func() error, update func()) error {
	fs.mu.Lock()
	var err error
	if fs.before != nil {
		err = fs.before(op)
	}
	fs.mu.Unlock()
	if err != nil {
		return err
	}
	if err := call(); err != nil {
		return err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if update != nil {
		update()
	}
	if fs.after != nil {
		fs.after(op)
	}
	return nil
}

// open is the three ways of opening a file: the new file's entry joins
// its directory (an existing one keeps its node).
func (fs *testFS) open(path string, call func() (file, error)) (file, error) {
	var f file
	var node *fsNode
	err := fs.do(fsOp{kind: "create", path: path}, func() (err error) {
		f, err = call()
		return err
	}, func() {
		name := f.Name()
		if d := fs.lookup(filepath.Dir(name)); d != nil {
			if node = d.entries[filepath.Base(name)]; node == nil {
				node = &fsNode{path: name}
				d.entries[filepath.Base(name)] = node
			}
		}
	})
	if err != nil {
		return nil, err
	}
	return &testFile{file: f, fs: fs, node: node}, nil
}

func (fs *testFS) CreateExcl(path string) (file, error) {
	return fs.open(path, func() (file, error) { return fs.osFS.CreateExcl(path) })
}

func (fs *testFS) CreateTemp(dir, pattern string) (file, error) {
	return fs.open(filepath.Join(dir, pattern), func() (file, error) { return fs.osFS.CreateTemp(dir, pattern) })
}

func (fs *testFS) OpenAppend(path string) (file, error) {
	return fs.open(path, func() (file, error) { return fs.osFS.OpenAppend(path) })
}

func (fs *testFS) Rename(oldpath, newpath string) error {
	return fs.do(fsOp{kind: "rename", path: oldpath, to: newpath}, func() error { return os.Rename(oldpath, newpath) }, func() {
		from, to := fs.lookup(filepath.Dir(oldpath)), fs.lookup(filepath.Dir(newpath))
		if from == nil || to == nil || from.entries[filepath.Base(oldpath)] == nil {
			return
		}
		n := from.entries[filepath.Base(oldpath)]
		delete(from.entries, filepath.Base(oldpath))
		if prev := to.entries[filepath.Base(newpath)]; prev != nil {
			prev.path = ""
		}
		to.entries[filepath.Base(newpath)], n.path = n, newpath
	})
}

func (fs *testFS) Remove(path string) error {
	return fs.do(fsOp{kind: "remove", path: path}, func() error { return os.Remove(path) }, func() {
		if d := fs.lookup(filepath.Dir(path)); d != nil && d.entries[filepath.Base(path)] != nil {
			d.entries[filepath.Base(path)].path = ""
			delete(d.entries, filepath.Base(path))
		}
	})
}

func (fs *testFS) MkdirAll(path string) error {
	return fs.do(fsOp{kind: "mkdir", path: path}, func() error { return fs.osFS.MkdirAll(path) }, func() {
		rel, err := filepath.Rel(fs.dir, path)
		if err != nil || strings.HasPrefix(rel, "..") {
			return
		}
		n, at := fs.root, fs.dir
		for _, name := range strings.Split(rel, string(filepath.Separator)) {
			if name == "." {
				continue
			}
			at = filepath.Join(at, name)
			if n.entries[name] == nil {
				n.entries[name] = &fsNode{path: at, entries: map[string]*fsNode{}, kept: map[string]*fsNode{}}
			}
			n = n.entries[name]
		}
	})
}

func (fs *testFS) SyncDir(dir string) error {
	return fs.do(fsOp{kind: "syncdir", path: dir}, func() error { return fs.osFS.SyncDir(dir) }, func() {
		if d := fs.lookup(dir); d != nil {
			d.kept = maps.Clone(d.entries)
		}
	})
}

// durableImage writes what a power loss at this instant would leave of
// the tree into dst: the directory entries as last synced, each file's
// bytes as last synced (a file never synced is empty). Call it from a
// hook or while no call is in flight.
func (fs *testFS) durableImage(dst string) error {
	var write func(d *fsNode, at string) error
	write = func(d *fsNode, at string) error {
		if err := os.MkdirAll(at, 0o755); err != nil {
			return err
		}
		for name, n := range d.kept {
			var err error
			if n.entries != nil {
				err = write(n, filepath.Join(at, name))
			} else {
				err = os.WriteFile(filepath.Join(at, name), n.synced, 0o644)
			}
			if err != nil {
				return err
			}
		}
		return nil
	}
	return write(fs.root, dst)
}

// testFile is a file a testFS opened; node is nil outside the tree.
type testFile struct {
	file
	fs   *testFS
	node *fsNode
}

func (f *testFile) Write(p []byte) (int, error) {
	half, err := f.file.Write(p[:len(p)/2])
	if err != nil {
		return half, err
	}
	rest := 0
	err = f.fs.do(fsOp{kind: "write", path: f.Name()}, func() (err error) {
		rest, err = f.file.Write(p[half:])
		return err
	}, nil)
	return half + rest, err
}

func (f *testFile) Sync() error {
	return f.fs.do(fsOp{kind: "sync", path: f.Name()}, f.file.Sync, func() {
		if f.node != nil && f.node.path != "" {
			f.node.synced, _ = os.ReadFile(f.node.path)
		}
	})
}

func (f *testFile) Chmod(mode os.FileMode) error {
	return f.fs.do(fsOp{kind: "chmod", path: f.Name()}, func() error { return f.file.Chmod(mode) }, nil)
}

func (f *testFile) Truncate(size int64) error {
	return f.fs.do(fsOp{kind: "truncate", path: f.Name()}, func() error { return f.file.Truncate(size) }, nil)
}

func (f *testFile) Seek(offset int64, whence int) (pos int64, err error) {
	err = f.fs.do(fsOp{kind: "seek", path: f.Name()}, func() (err error) {
		pos, err = f.file.Seek(offset, whence)
		return err
	}, nil)
	return pos, err
}

func (f *testFile) Close() error {
	return f.fs.do(fsOp{kind: "close", path: f.Name()}, f.file.Close, nil)
}
