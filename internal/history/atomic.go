package history

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// fsys is every call by which the store changes the disk, and the one
// read a served request makes (FSBackend.Get); the scans of open and
// pcfsck read through os directly. FSBackend and WAL each hold one, set
// to osFS by every constructor; Faults wraps osFS to fail, tear or slow
// the calls, and the tests hook it to watch them or keep what a power
// loss would.
type fsys interface {
	CreateExcl(path string) (file, error) // a new file, write-only; fails if path exists
	CreateTemp(dir, pattern string) (file, error)
	OpenWrite(path string) (file, error)  // an existing file, write-only
	OpenAppend(path string) (file, error) // write-only, appending, created when absent
	Rename(oldpath, newpath string) error
	Remove(path string) error
	MkdirAll(path string) error
	SyncDir(dir string) error
	ReadFile(path string) ([]byte, error)
}

// file is a file an fsys opened, by the calls that change it.
type file interface {
	io.Writer
	Name() string
	Sync() error
	Chmod(mode os.FileMode) error
	Truncate(size int64) error
	Seek(offset int64, whence int) (int64, error)
	Close() error
}

// osFS is the real file system.
type osFS struct{}

func (osFS) CreateExcl(path string) (file, error) {
	return os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
}

func (osFS) CreateTemp(dir, pattern string) (file, error) { return os.CreateTemp(dir, pattern) }

func (osFS) OpenWrite(path string) (file, error) { return os.OpenFile(path, os.O_WRONLY, 0) }

func (osFS) OpenAppend(path string) (file, error) {
	return os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(path string) error { return os.Remove(path) }

func (osFS) MkdirAll(path string) error { return os.MkdirAll(path, 0o755) }

func (osFS) ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }

// SyncDir fsyncs a directory, making a just-committed rename inside it
// durable across power loss. (The rename itself only orders the metadata
// in memory; the directory entry reaches the platter on its fsync.)
func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// WriteFileAtomic replaces path with data so that a crash or power loss
// at any instant leaves either the previous file or the complete new
// one, never a torn or empty one: the bytes go to a temp file beside
// path (named from tmpPattern, os.CreateTemp syntax), are fsynced, and
// only then renamed over path; the directory is fsynced last so the
// rename itself survives. The temp file is removed on every failure
// before the rename. Every metadata file the store, the replication
// layer and the session journal persist goes through here, as do the
// record files themselves — all but a follower's replica/POSITION, which
// is overwritten in place.
func WriteFileAtomic(path, tmpPattern string, data []byte) error {
	return writeFileAtomic(osFS{}, path, tmpPattern, data)
}

// writeFileAtomic is WriteFileAtomic through fs.
func writeFileAtomic(fs fsys, path, tmpPattern string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := stageFile(fs, dir, tmpPattern, data)
	if err != nil {
		return err
	}
	if err := fs.Rename(tmp, path); err != nil {
		fs.Remove(tmp)
		return err
	}
	if err := fs.SyncDir(dir); err != nil {
		return fmt.Errorf("sync dir: %w", err)
	}
	return nil
}

// stageFile is the half of an atomic write before anything is visible:
// data goes to a fresh temp file in dir (named from tmpPattern), is
// given its final mode on the descriptor and fsynced; the closed file's
// name comes back, ready to be renamed over its target. The temp file is removed on every failure. A crash before the
// rename still orphans it; the owners that can accumulate them sweep at
// open.
func stageFile(fs fsys, dir, tmpPattern string, data []byte) (string, error) {
	tmp, err := fs.CreateTemp(dir, tmpPattern)
	if err != nil {
		return "", err
	}
	return writeStaged(fs, tmp, data)
}

// writeStaged is stageFile past the create: data into tmp, an empty file
// open for writing, which is closed, and removed on failure.
func writeStaged(fs fsys, tmp file, data []byte) (string, error) {
	_, err := tmp.Write(data)
	if err == nil {
		err = tmp.Chmod(0o644)
	}
	if err == nil {
		// Fsync the data before the rename can publish it: a durable
		// rename of a file whose blocks never reached the disk survives a
		// power loss as a zero-length or torn file.
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fs.Remove(tmp.Name())
		return "", err
	}
	return tmp.Name(), nil
}
