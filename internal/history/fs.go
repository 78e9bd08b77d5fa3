package history

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// FSBackend stores one JSON file per record in a directory.
//
// Files are named esc(app)-esc(version)-esc(runid).json, where esc
// percent-escapes '%', '-', path separators and control bytes in each
// component, so the three components parse back unambiguously and every
// key has exactly one file name. Scan identifies every file by its JSON
// content, not its name; a record found under any other name (the
// pre-escaping app[-version]-runid.json scheme, say) is renamed by the
// open-time recovery (which pcfsck -repair runs), never read through a
// fallback.
type FSBackend struct {
	dir string
	fs  fsys
	// spares is a journaled store's pool of record files made ahead of
	// need; nil for any other directory, whose stages create their files.
	spares *sparePool
}

// NewFSBackend opens (creating if needed) a record directory.
func NewFSBackend(dir string) (*FSBackend, error) {
	if dir == "" {
		return nil, fmt.Errorf("history: empty store directory")
	}
	b := fsBackendAt(dir)
	if err := b.fs.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("history: create store: %w", err)
	}
	return b, nil
}

// fsBackendAt is the backend of an existing record directory.
func fsBackendAt(dir string) *FSBackend { return &FSBackend{dir: dir, fs: osFS{}} }

// Dir returns the backend's directory.
func (b *FSBackend) Dir() string { return b.dir }

// Name implements Backend.
func (b *FSBackend) Name() string { return "fs:" + b.dir }

// escapeComponent makes one key component safe to embed in a file name:
// '%' (the escape lead), '-' (the component separator), slashes and
// control bytes become %XX. Escaped names are a single path element and
// never collide across distinct keys.
func escapeComponent(s string) string {
	var out strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == '%' || c == '-' || c == '/' || c == '\\' || c < 0x20 || c == 0x7f {
			fmt.Fprintf(&out, "%%%02X", c)
			continue
		}
		out.WriteByte(c)
	}
	return out.String()
}

// fileName is the escaped-scheme basename for a key. Every key has
// exactly three '-'-separated segments (the version segment is empty for
// versionless records), so names parse unambiguously.
func fileName(key RecordKey) string {
	return escapeComponent(key.App) + "-" + escapeComponent(key.Version) + "-" +
		escapeComponent(key.RunID) + ".json"
}

// The filesystem write, in the steps Store.commit runs across a whole
// commit and Put runs for one record: stage, publish (or remove), and
// the directory fsync that makes renames and removals durable.

// stage writes one record's bytes to a unique temp file beside the
// records — a spare when the pool has one, else one created now —,
// data-fsynced, invisible to Scan and Get.
func (b *FSBackend) stage(data []byte) (tmp string, err error) {
	if f := b.spare(); f != nil {
		tmp, err = writeStaged(b.fs, f, data)
	} else {
		tmp, err = stageFile(b.fs, b.dir, stagedName, data)
	}
	if err != nil {
		return "", fmt.Errorf("history: write: %w", err)
	}
	return tmp, nil
}

// publish renames a staged file over key's record file; a refused rename
// removes the temp file.
func (b *FSBackend) publish(tmp string, key RecordKey) error {
	if err := b.fs.Rename(tmp, filepath.Join(b.dir, fileName(key))); err != nil {
		b.fs.Remove(tmp)
		return fmt.Errorf("history: write: %w", err)
	}
	return nil
}

// remove unlinks key's record file.
func (b *FSBackend) remove(key RecordKey) error {
	if err := b.fs.Remove(filepath.Join(b.dir, fileName(key))); err != nil {
		return fmt.Errorf("history: delete: %w", err)
	}
	return nil
}

// syncRecords fsyncs the record directory after op's renames or removals.
func (b *FSBackend) syncRecords(op string) error {
	if err := b.fs.SyncDir(b.dir); err != nil {
		return fmt.Errorf("history: %s: sync dir: %w", op, err)
	}
	return nil
}

// Put implements Backend: an atomic write (unique temp file, data
// fsync, rename, directory fsync) that removes the temp file on every
// failure path — stage, publish and sync of one.
func (b *FSBackend) Put(key RecordKey, data []byte) error {
	tmp, err := b.stage(data)
	if err == nil {
		err = b.publish(tmp, key)
	}
	if err == nil {
		err = b.syncRecords("write")
	}
	return err
}

// stageWorkers bounds how many record files of one commit are staged at
// once. Concurrent fsyncs fold into one commit of the file system's own
// journal; past a handful the gain is gone and the descriptors are not.
const stageWorkers = 4

// spareFiles is the most empty record files a journaled store's
// directory keeps made ahead of need: one batch of eight. A larger pool's
// first fill lands in a server's set-up, where nothing waits on it.
const spareFiles = 8

// spareQuiet is how long after a commit a burst waits before a create:
// commits back to back leave no gap and create their files as before.
const spareQuiet = 200 * time.Microsecond

// stagedName is the pattern of staged record files and of spares: temp
// files, which every open sweeps and pcfsck grades.
const stagedName = ".put-*.tmp"

// sparePool is a journaled store's spares. On ext4 a create allocates an
// inode in the journal transaction a commit's fsync then waits on, and
// opening a file made earlier costs next to nothing, so a commit stages
// its records into spares, and one
// goroutine makes more between commits: a burst once fewer than half are
// left, which stops when a commit starts staging — a create in flight
// holds up that commit's journal fsync. A burst first makes the journal's
// next segment (WAL.makeAhead). The first commit starts the first burst;
// Close removes the spares; a killed process leaves them to the next open.
type sparePool struct {
	mu     sync.Mutex
	free   []string      // made and not taken
	busy   int           // commits staging now
	idle   time.Time     // when the last of them ended
	fill   chan struct{} // closed when the running burst ends; nil while none runs
	closed bool
	wal    *WAL // the store's journal
}

// spare takes a spare, open for writing, or nil when there is none.
func (b *FSBackend) spare() file {
	p := b.spares
	if p == nil {
		return nil
	}
	var name string
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		name, p.free = p.free[n-1], p.free[:n-1]
	}
	p.mu.Unlock()
	if name == "" {
		return nil
	}
	f, err := b.fs.OpenWrite(name)
	if err != nil {
		b.fs.Remove(name)
		return nil
	}
	return f
}

// stagingDone ends a commit's staging; the last commit out starts a
// burst when the pool has run low.
func (p *sparePool) stagingDone(b *FSBackend) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.busy--
	p.idle = time.Now()
	if p.busy == 0 && !p.closed && p.fill == nil && (len(p.free) < spareFiles/2 || p.wal.ahead.Load()) {
		p.fill = make(chan struct{})
		go b.fillSpares()
	}
}

// fillSpares is one burst: the journal's work, then spares until the pool
// is full, a commit starts staging, a call fails or the pool closes; a
// spare made across the close is removed before the burst ends.
func (b *FSBackend) fillSpares() {
	p := b.spares
	defer func() {
		p.mu.Lock()
		close(p.fill)
		p.fill = nil
		p.mu.Unlock()
	}()
	for {
		p.mu.Lock()
		ahead := p.wal.ahead.Load()
		stop := p.closed || p.busy > 0 || len(p.free) >= spareFiles && !ahead
		wait := spareQuiet - time.Since(p.idle)
		p.mu.Unlock()
		if stop {
			return
		}
		if wait > 0 {
			time.Sleep(wait)
			continue
		}
		if ahead {
			if !p.wal.makeAhead() {
				return
			}
			continue
		}
		f, err := b.fs.CreateTemp(b.dir, stagedName)
		if err != nil {
			return
		}
		name := f.Name()
		err = f.Close()
		p.mu.Lock()
		if err == nil && !p.closed {
			p.free, name = append(p.free, name), ""
		}
		p.mu.Unlock()
		if name != "" {
			b.fs.Remove(name)
			return
		}
	}
}

// settle waits for the running burst, if any, to end.
func (p *sparePool) settle() {
	p.mu.Lock()
	fill := p.fill
	p.mu.Unlock()
	if fill != nil {
		<-fill
	}
}

// closeSpares removes every spare, a running burst's too; the pool makes
// none after.
func (b *FSBackend) closeSpares() {
	p := b.spares
	if p == nil {
		return
	}
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.settle()
	p.mu.Lock()
	free := p.free
	p.free = nil
	p.mu.Unlock()
	for _, name := range free {
		b.fs.Remove(name)
	}
}

// staging is the record files of one commit on their way to disk: one
// temp file per put, written while the commit's journal group is.
type staging struct {
	b    *FSBackend
	wg   sync.WaitGroup
	next atomic.Int64 // the next mutation a worker takes
	tmps []string     // per mutation: the staged file; "" for a delete or a put that failed
	errs []error      // per mutation: why it could not be staged
}

// stageAll starts staging the puts of ms on up to stageWorkers goroutines.
func (b *FSBackend) stageAll(ms []mutation) *staging {
	st := &staging{b: b, tmps: make([]string, len(ms)), errs: make([]error, len(ms))}
	if p := b.spares; p != nil {
		p.mu.Lock()
		p.busy++
		p.mu.Unlock()
	}
	for range min(len(ms), stageWorkers) {
		st.wg.Add(1)
		go func() {
			defer st.wg.Done()
			for i := int(st.next.Add(1)) - 1; i < len(ms); i = int(st.next.Add(1)) - 1 {
				if ms[i].Op == walOpPut {
					st.tmps[i], st.errs[i] = b.stage(ms[i].Data)
				}
			}
		}()
	}
	return st
}

// write publishes mutation i once every file is staged: a put's staged
// file is renamed over its record, a delete's record is removed. Neither
// is durable before syncRecords.
func (st *staging) write(i int, m mutation) error {
	st.wg.Wait()
	if m.Op == walOpDelete {
		return st.b.remove(m.Key())
	}
	tmp := st.tmps[i]
	if tmp == "" {
		return st.errs[i]
	}
	st.tmps[i] = ""
	return st.b.publish(tmp, m.Key())
}

// discard removes the staged files that were not published, ending the
// commit's staging.
func (st *staging) discard() {
	st.wg.Wait()
	for _, tmp := range st.tmps {
		if tmp != "" {
			st.b.fs.Remove(tmp)
		}
	}
	if p := st.b.spares; p != nil {
		p.stagingDone(st.b)
	}
}

// Get implements Backend.
func (b *FSBackend) Get(key RecordKey) ([]byte, error) {
	data, err := b.fs.ReadFile(filepath.Join(b.dir, fileName(key)))
	if err != nil {
		return nil, fmt.Errorf("history: load: %w", err)
	}
	return data, nil
}

// Delete implements Backend.
func (b *FSBackend) Delete(key RecordKey) error {
	if err := b.remove(key); err != nil {
		return err
	}
	return b.syncRecords("delete")
}

// moveFile renames from to to and fsyncs the directories the move
// changed, the destination's first, so a power loss can neither lose the
// file from its new place nor resurrect it in its old one.
func moveFile(fs fsys, from, to string) error {
	if err := fs.Rename(from, to); err != nil {
		return err
	}
	dirs := []string{filepath.Dir(to)}
	if src := filepath.Dir(from); src != dirs[0] {
		dirs = append(dirs, src)
	}
	for _, dir := range dirs {
		if err := fs.SyncDir(dir); err != nil {
			return fmt.Errorf("sync dir: %w", err)
		}
	}
	return nil
}

// QuarantineDir is the subdirectory OpenStore moves corrupt records
// into. Files in it are ignored by Scan; moving one back into the store
// directory (and reopening) restores the record.
const QuarantineDir = "quarantine"

// quarantineReport is the per-store log of what was quarantined and why.
const quarantineReport = "REPORT.txt"

// tempFiles are the atomic-write temp files of each writer of a store
// tree, by directory: the record files, wal/EPOCH, replica/STATE.json
// and PEERS.json, the session journal and shards/MANIFEST.json. None is
// ever published, so one left over, by a crash or by a failed rename
// whose cleanup failed too, is garbage: a store's open sweeps every one
// in its directory, and a sharded store's open those at its root.
var tempFiles = [][2]string{{".", ".put-"}, {WALDirName, ".epoch-"}, {"replica", ".state-"},
	{"replica", ".peers-"}, {"sessions", ".session-"}, {ShardsDirName, ".manifest-"}}

// leftTemp lists the temp files of writers under dir, relative to it.
func leftTemp(dir string, writers [][2]string) (rels []string) {
	for _, w := range writers {
		des, _ := os.ReadDir(filepath.Join(dir, w[0])) // most writers' directories are absent
		for _, de := range des {
			if name := de.Name(); !de.IsDir() && strings.HasPrefix(name, w[1]) && strings.HasSuffix(name, ".tmp") {
				rels = append(rels, filepath.Join(w[0], name))
			}
		}
	}
	return rels
}

// Quarantine moves the named store file into the quarantine/
// subdirectory and appends a line to quarantine/REPORT.txt recording the
// reason — corrupt data is set aside restorably, never deleted. name
// must be a bare basename as yielded by Scan.
func (b *FSBackend) Quarantine(name, reason string) error {
	if name == "" || strings.ContainsAny(name, "/\\") {
		return fmt.Errorf("history: quarantine: bad entry name %q", name)
	}
	qdir := filepath.Join(b.dir, QuarantineDir)
	if err := b.fs.MkdirAll(qdir); err != nil {
		return fmt.Errorf("history: quarantine: %w", err)
	}
	if err := moveFile(b.fs, filepath.Join(b.dir, name), filepath.Join(qdir, name)); err != nil {
		return fmt.Errorf("history: quarantine: %w", err)
	}
	// The report is advisory; failing to append must not fail the
	// recovery that just made the store readable again.
	f, err := b.fs.OpenAppend(filepath.Join(qdir, quarantineReport))
	if err == nil {
		fmt.Fprintf(f, "%s\t%s\n", name, reason)
		f.Close()
	}
	return nil
}

// Scan implements Backend: every .json file in the directory in name
// order, unreadable files reported as issues.
func (b *FSBackend) Scan() ([]ScanEntry, []ScanIssue, error) {
	dirEntries, err := os.ReadDir(b.dir)
	if err != nil {
		return nil, nil, fmt.Errorf("history: list: %w", err)
	}
	var names []string
	for _, e := range dirEntries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		names = append(names, e.Name())
	}
	sort.Strings(names)
	var entries []ScanEntry
	var issues []ScanIssue
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(b.dir, name))
		if err != nil {
			issues = append(issues, ScanIssue{Name: name, Err: err})
			continue
		}
		entries = append(entries, ScanEntry{Name: name, Data: data})
	}
	return entries, issues, nil
}
