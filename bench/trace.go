package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/history"
)

// span is one timed interval at a layer boundary. Spans of one op share
// Op; Parent is the index of the enclosing span of the same op, or -1.
type span struct {
	Name   string `json:"name"`
	Op     uint64 `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. While disabled the
// decorators stay in the call path but record nothing, which is the
// "decorators off" half of the traced run.
type recorder struct {
	enabled atomic.Bool
	t0      time.Time

	mu    sync.Mutex
	spans []span
	// tokens maps what a storage call can see (a record key, or an
	// app/version scope) to the ops currently waiting on such a call.
	tokens map[string][]uint64
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), tokens: make(map[string][]uint64)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// expect registers that op is about to cause storage calls matching
// token; the returned func withdraws the registration.
func (r *recorder) expect(op uint64, tokens ...string) func() {
	if r == nil || !r.enabled.Load() {
		return func() {}
	}
	r.mu.Lock()
	for _, t := range tokens {
		r.tokens[t] = append(r.tokens[t], op)
	}
	r.mu.Unlock()
	return func() {
		r.mu.Lock()
		for _, t := range tokens {
			ops := r.tokens[t]
			for i, o := range ops {
				if o == op {
					ops = append(ops[:i], ops[i+1:]...)
					break
				}
			}
			if len(ops) == 0 {
				delete(r.tokens, t)
			} else {
				r.tokens[t] = ops
			}
		}
		r.mu.Unlock()
	}
}

// opFor resolves a token to a waiting op. Two ops waiting on the same
// token (two clients reading one hot key at once) are served in turn.
func (r *recorder) opFor(token string) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	ops := r.tokens[token]
	if len(ops) == 0 {
		return 0
	}
	op := ops[0]
	if len(ops) > 1 {
		copy(ops, ops[1:])
		ops[len(ops)-1] = op
	}
	return op
}

// begin opens a span; the returned func closes it. op 0 with a token
// resolves the op from the token registry.
func (r *recorder) begin(name string, op uint64, token string) func() {
	if r == nil || !r.enabled.Load() {
		return func() {}
	}
	if op == 0 && token != "" {
		op = r.opFor(token)
	}
	start := r.now()
	return func() {
		end := r.now()
		r.mu.Lock()
		r.spans = append(r.spans, span{Name: name, Op: op, Start: start, End: end, Parent: -1})
		r.mu.Unlock()
	}
}

// take returns the recorded spans with parents resolved.
func (r *recorder) take() []span {
	r.mu.Lock()
	out := r.spans
	r.spans = nil
	r.mu.Unlock()
	resolveParents(out)
	return out
}

// resolveParents sets each span's Parent to the innermost span of the
// same op that encloses it in time. Within one op the layers nest
// strictly (client ⊃ server ⊃ gate ⊃ history ⊃ backend), so enclosure
// is causation. Spans with op 0 (nothing claimed them) stay roots.
func resolveParents(spans []span) {
	byOp := make(map[uint64][]int)
	for i, s := range spans {
		if s.Op != 0 {
			byOp[s.Op] = append(byOp[s.Op], i)
		}
	}
	for _, idx := range byOp {
		sort.Slice(idx, func(a, b int) bool {
			sa, sb := spans[idx[a]], spans[idx[b]]
			if sa.Start != sb.Start {
				return sa.Start < sb.Start
			}
			return sa.End > sb.End
		})
		var stack []int
		for _, i := range idx {
			for len(stack) > 0 && spans[stack[len(stack)-1]].End < spans[i].End {
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 {
				spans[i].Parent = stack[len(stack)-1]
			}
			stack = append(stack, i)
		}
	}
}

// selfTimes returns, per span, its duration minus the part of it its
// direct children cover (overlapping children are counted once).
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			ks, ke := spans[k].Start, spans[k].End
			if ks < edge {
				ks = edge
			}
			if ke > s.End {
				ke = s.End
			}
			if ke > ks {
				covered += ke - ks
				edge = ke
			}
		}
		out[i] = s.dur() - covered
	}
	return out
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// opHeader carries the op id from the client to the handler wrapper.
const opHeader = "X-Bench-Op"

type opKey struct{}

func withOp(ctx context.Context, op uint64) context.Context {
	return context.WithValue(ctx, opKey{}, op)
}

// opTransport stamps the op id of the request's context on the wire.
type opTransport struct{ base http.RoundTripper }

func (t opTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if op, ok := req.Context().Value(opKey{}).(uint64); ok && op != 0 {
		req = req.Clone(req.Context())
		req.Header.Set(opHeader, strconv.FormatUint(op, 10))
	}
	return t.base.RoundTrip(req)
}

// tracedHandler records one server.handle span per request that
// carries an op id.
func tracedHandler(rec *recorder, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op, _ := strconv.ParseUint(r.Header.Get(opHeader), 10, 64)
		if op == 0 {
			next.ServeHTTP(w, r)
			return
		}
		end := rec.begin("server.handle", op, "")
		next.ServeHTTP(w, r)
		end()
	})
}

func keyToken(k history.RecordKey) string   { return "k:" + k.App + "/" + k.Version + "/" + k.RunID }
func scopeToken(app, version string) string { return "s:" + app + "/" + version }

// tracedStorage times the calls the workloads drive through a
// history.Storage. layer names the seam: "gate" outside the replication
// gate, "history" directly on the store. Every other method passes
// through the embedded interface untouched.
type tracedStorage struct {
	history.Storage
	rec   *recorder
	layer string
}

func (t *tracedStorage) Save(r *history.RunRecord) error {
	defer t.rec.begin(t.layer+".save", 0, keyToken(r.Key()))()
	return t.Storage.Save(r)
}

func (t *tracedStorage) PutBatch(recs []*history.RunRecord) (int, error) {
	token := ""
	if len(recs) > 0 && recs[0] != nil {
		token = keyToken(recs[0].Key())
	}
	defer t.rec.begin(t.layer+".putbatch", 0, token)()
	return t.Storage.PutBatch(recs)
}

func (t *tracedStorage) Load(app, version, runID string) (*history.RunRecord, error) {
	defer t.rec.begin(t.layer+".load", 0, keyToken(history.RecordKey{App: app, Version: version, RunID: runID}))()
	return t.Storage.Load(app, version, runID)
}

func (t *tracedStorage) LoadAll(app, version string) ([]*history.RunRecord, error) {
	defer t.rec.begin(t.layer+".loadall", 0, scopeToken(app, version))()
	return t.Storage.LoadAll(app, version)
}

func (t *tracedStorage) Query(app, version string, f history.ResultFilter) ([]history.QueryHit, error) {
	defer t.rec.begin(t.layer+".query", 0, scopeToken(app, version))()
	return t.Storage.Query(app, version, f)
}

func (t *tracedStorage) PersistentBottlenecks(app, version string, minRuns int) (map[string]int, error) {
	defer t.rec.begin(t.layer+".persistent", 0, scopeToken(app, version))()
	return t.Storage.PersistentBottlenecks(app, version, minRuns)
}

// ShardStats forwards the one optional interface the server probes a
// Storage for, so /statsz keeps its sharding block through the wrapper.
func (t *tracedStorage) ShardStats() []history.ShardInfo {
	if ss, ok := t.Storage.(interface{ ShardStats() []history.ShardInfo }); ok {
		return ss.ShardStats()
	}
	return nil
}

// tracedBackend times Backend.Put, the one backend call on the write
// path. Inner lets Store.Dir see through the wrapper.
type tracedBackend struct {
	history.Backend
	rec *recorder
}

func (b *tracedBackend) Put(key history.RecordKey, data []byte) error {
	defer b.rec.begin("backend.put", 0, keyToken(key))()
	return b.Backend.Put(key, data)
}

func (b *tracedBackend) Inner() history.Backend { return b.Backend }
