package history

import (
	"fmt"
	"os"
	"path/filepath"
)

// fsOps are the three filesystem steps of an atomic write that the
// durability tests intercept; a nil field means the real call.
type fsOps struct {
	syncFile func(f *os.File) error
	rename   func(oldpath, newpath string) error
	syncDir  func(dir string) error
}

// atomicOps is the seam under WriteFileAtomic. Only tests replace it.
var atomicOps fsOps

// syncDir fsyncs a directory, making a just-committed rename inside it
// durable across power loss. (The rename itself only orders the metadata
// in memory; the directory entry reaches the platter on its fsync.)
func syncDir(dir string) error {
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
// record files themselves.
func WriteFileAtomic(path, tmpPattern string, data []byte) error {
	return writeFileAtomic(path, tmpPattern, data, atomicOps)
}

// ReplaceFile is WriteFileAtomic without the two fsyncs: a crash of the
// process still leaves the previous file or the complete new one (the
// rename is atomic), but a power loss may leave either, or an empty
// file. It is for state whose loss only costs work and which is written
// too often to pay for durability — a follower's applied-position
// checkpoint sits on every replicated write's acknowledgement path.
func ReplaceFile(path, tmpPattern string, data []byte) error {
	return writeFileAtomic(path, tmpPattern, data, fsOps{
		syncFile: func(*os.File) error { return nil },
		syncDir:  func(string) error { return nil },
	})
}

func writeFileAtomic(path, tmpPattern string, data []byte, ops fsOps) error {
	if ops.rename == nil {
		ops.rename = os.Rename
	}
	if ops.syncDir == nil {
		ops.syncDir = syncDir
	}
	dir := filepath.Dir(path)
	tmp, err := stageFile(dir, tmpPattern, data, ops.syncFile)
	if err != nil {
		return err
	}
	if err := ops.rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := ops.syncDir(dir); err != nil {
		return fmt.Errorf("sync dir: %w", err)
	}
	return nil
}

// stageFile is the half of an atomic write before anything is visible:
// data goes to a fresh temp file in dir (named from tmpPattern), is
// given its final mode on the descriptor and fsynced — through syncFile
// when non-nil; the closed file's name comes back, ready to be renamed
// over its target. The temp file is removed on every failure. A crash
// before the rename still orphans it; the owners that can accumulate
// them sweep at open.
func stageFile(dir, tmpPattern string, data []byte, syncFile func(*os.File) error) (string, error) {
	if syncFile == nil {
		syncFile = (*os.File).Sync
	}
	tmp, err := os.CreateTemp(dir, tmpPattern)
	if err != nil {
		return "", err
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Chmod(0o644)
	}
	if err == nil {
		// Fsync the data before the rename can publish it: a durable
		// rename of a file whose blocks never reached the disk survives a
		// power loss as a zero-length or torn file.
		err = syncFile(tmp)
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp.Name())
		return "", err
	}
	return tmp.Name(), nil
}
