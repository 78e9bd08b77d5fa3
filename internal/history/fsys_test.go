package history

import (
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// isSegment reports whether path names a journal segment.
func isSegment(path string) bool { return strings.HasSuffix(path, walSuffix) }

// testFS is the tests' hold on the seam: a Faults — the injector the
// store ships — hooked by this type. Each call is shown to before first:
// an error fails the call without running it, except that a write's
// first half has landed when before sees it, so failing a write tears
// it. Once it succeeded it is shown to after. The hooks run one at a time
// under the injector's lock (the stagers call from goroutines), so they
// need no lock of their own. Armed, the injector's own draws apply too,
// and fired lists the faults they injected.
//
// It also keeps what a power loss would leave of the tree under dir:
// per file, by identity — a rename carries the file's bytes — the bytes
// as of its last Sync; per directory the entries as of its last SyncDir;
// both starting from the tree as it stood when the recorder was made.
// durableImage writes that out.
type testFS struct {
	*Faults
	dir  string
	root *fsNode

	before func(op fsOp) error
	after  func(op fsOp)
	fired  []string // "kind name #n" of each fault drawn
}

// fsNode is one file or directory of a testFS's tree.
type fsNode struct {
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
		n := &fsNode{}
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
	fs := &testFS{Faults: NewFaults(FaultConfig{}), dir: dir, root: nodes[dir]}
	fs.hook = fs
	return fs
}

// install puts fs under a record directory and a journal (either may be
// nil), the journal's open segment included.
func (fs *testFS) install(b *FSBackend, w *WAL) {
	if b != nil {
		b.fs = fs.Faults
	}
	if w != nil {
		w.fs = fs.Faults
		w.f = &faultFile{file: w.f, fs: fs.Faults}
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

// mkdirs finds dir's node, adding the directories on the way that were
// made since — mkdir is no call the injector shows — and nil outside the
// tree.
func (fs *testFS) mkdirs(dir string) *fsNode {
	rel, err := filepath.Rel(fs.dir, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return nil
	}
	n := fs.root
	for _, name := range strings.Split(rel, string(filepath.Separator)) {
		if name == "." {
			continue
		}
		if n.entries[name] == nil {
			n.entries[name] = &fsNode{entries: map[string]*fsNode{}, kept: map[string]*fsNode{}}
		}
		n = n.entries[name]
	}
	return n
}

func (fs *testFS) beforeCall(op fsOp) error {
	if fs.before != nil {
		return fs.before(op)
	}
	return nil
}

// afterCall updates the model with a call that succeeded, then shows it
// to after.
func (fs *testFS) afterCall(op fsOp) {
	d, base := fs.mkdirs(filepath.Dir(op.path)), filepath.Base(op.path)
	switch op.kind {
	case "create", "createtemp": // an existing file keeps its node
		if d != nil && d.entries[base] == nil {
			d.entries[base] = &fsNode{}
		}
	case "sync":
		if n := fs.lookup(op.path); n != nil {
			n.synced, _ = os.ReadFile(op.path)
		}
	case "rename":
		if to := fs.mkdirs(filepath.Dir(op.to)); d != nil && to != nil && d.entries[base] != nil {
			to.entries[filepath.Base(op.to)] = d.entries[base]
			delete(d.entries, base)
		}
	case "remove":
		if d != nil {
			delete(d.entries, base)
		}
	case "syncdir":
		if n := fs.lookup(op.path); n != nil {
			n.kept = maps.Clone(n.entries)
		}
	}
	if fs.after != nil {
		fs.after(op)
	}
}

func (fs *testFS) onFault(op fsOp, name string, n uint64) {
	fs.fired = append(fs.fired, fmt.Sprintf("%s %s #%d", op.kind, name, n))
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
