package history

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"testing/quick"
)

// The index copy of a saved record is a field-wise clone, not a decode
// of the stored bytes. These tests hold the clone to what the decode
// would have produced, and the store to never sharing memory with the
// record a caller handed it.

// corpusShapedRecord builds a record shaped like the ones pcrun stores:
// four hierarchies, a result per (hypothesis : focus) pair with the long
// focus names of a refined search, a usage map over the code resources.
// 650 results encode to about 180 KB, the mean of the benchmark corpus
// (bench/: nine harness sessions, 45–483 KB).
func corpusShapedRecord(runID string, results int) *RunRecord {
	rec := &RunRecord{
		App: "poisson", Version: "C", RunID: runID, Duration: 409.5,
		Resources: map[string][]string{
			"Code":       {"/Code"},
			"Machine":    {"/Machine", "/Machine/sp01", "/Machine/sp02", "/Machine/sp03", "/Machine/sp04"},
			"Process":    {"/Process", "/Process/p1", "/Process/p2", "/Process/p3", "/Process/p4"},
			"SyncObject": {"/SyncObject", "/SyncObject/Message", "/SyncObject/Message/3", "/SyncObject/Barrier"},
		},
		ProcNodes:   map[string]string{"p1": "sp01", "p2": "sp02", "p3": "sp03", "p4": "sp04"},
		Usage:       map[string]float64{},
		PairsTested: results,
	}
	for i := 0; i < 24; i++ {
		path := fmt.Sprintf("/Code/exchng%d.f/exchng%d", i%6, i)
		rec.Resources["Code"] = append(rec.Resources["Code"], path)
		rec.Usage[path] = float64(i) / 97
	}
	hyps := []string{"ExcessiveSyncWaitingTime", "CPUbound", "ExcessiveIOBlockingTime"}
	states := []string{"true", "false", "false", "pruned", "false", "testing"}
	for i := 0; i < results; i++ {
		nr := NodeResult{
			Hyp:         hyps[i%len(hyps)],
			Focus:       fmt.Sprintf("</Code/exchng%d.f/exchng%d,/Machine/sp0%d,/Process/p%d,/SyncObject/Message>", i%6, i%24, 1+i%4, 1+i%4),
			State:       states[i%len(states)],
			Value:       float64(i%89) / 89 * 0.9281200379313796,
			Threshold:   0.2,
			ConcludedAt: float64(5 + i/4),
			Priority:    "medium",
			Persistent:  i%11 == 0,
		}
		if nr.State == "true" {
			rec.TrueCount++
		}
		rec.Results = append(rec.Results, nr)
	}
	return rec
}

// randomRecord draws a record Validate accepts from testing/quick's
// generator — arbitrary strings, keys and floats — then makes some maps
// and slices nil or empty, the shapes the generator itself never yields
// and the ones a clone is most likely to confuse.
func randomRecord(r *rand.Rand) *RunRecord {
	v, ok := quick.Value(reflect.TypeOf(RunRecord{}), r)
	if !ok {
		panic("testing/quick cannot generate a RunRecord")
	}
	rec := v.Interface().(RunRecord)
	rec.App += "a"
	rec.RunID += "r"
	states := []string{"pending", "testing", "true", "false", "pruned"}
	rec.TrueCount = 0
	for i := range rec.Results {
		rec.Results[i].State = states[r.Intn(len(states))]
		if rec.Results[i].State == "true" {
			rec.TrueCount++
		}
	}
	switch r.Intn(4) {
	case 0:
		rec.Resources, rec.ProcNodes, rec.Usage = nil, nil, nil
		if rec.TrueCount == 0 {
			rec.Results = nil
		}
	case 1:
		rec.Resources, rec.ProcNodes, rec.Usage = map[string][]string{}, map[string]string{}, map[string]float64{}
		if rec.TrueCount == 0 {
			rec.Results = []NodeResult{}
		}
	case 2:
		for h := range rec.Resources {
			if r.Intn(2) == 0 {
				rec.Resources[h] = nil
			} else {
				rec.Resources[h] = []string{}
			}
		}
	}
	return &rec
}

// putMutation builds the put of a record its caller keeps, as Save does.
func putMutation(rec *RunRecord) (mutation, error) { return detach(rec)[0].mutation() }

// checkIndexCopy is the property: the copy putMutation hands the index
// is what decoding the stored bytes yields, and encodes back to them.
func checkIndexCopy(t *testing.T, rec *RunRecord) {
	t.Helper()
	m, err := putMutation(rec)
	if err != nil {
		t.Fatalf("putMutation: %v", err)
	}
	if m.rec == rec {
		t.Fatal("the index copy is the caller's pointer")
	}
	dec, err := decodeRecord(m.Data)
	if err != nil {
		t.Fatalf("decode of the stored bytes: %v", err)
	}
	if !reflect.DeepEqual(m.rec, dec) {
		t.Fatalf("clone differs from the decode of the stored bytes:\nclone  %#v\ndecode %#v", m.rec, dec)
	}
	again, err := json.MarshalIndent(m.rec, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, m.Data) {
		t.Fatal("re-encoding the index copy does not reproduce the stored bytes")
	}
}

func TestCloneMatchesDecode(t *testing.T) {
	fixed := []*RunRecord{
		sampleRecord("r1"),
		corpusShapedRecord("big", 650),
		{App: "a", RunID: "r"},
		{App: "a", RunID: "r", Resources: map[string][]string{}, ProcNodes: map[string]string{}, Results: []NodeResult{}, Usage: map[string]float64{}},
		{App: "a", RunID: "r", Resources: map[string][]string{"nil": nil, "empty": {}, "": {""}}},
		{App: "<a>& ", Version: "�", RunID: "r\x00\"\\", Usage: map[string]float64{"-0": math.Copysign(0, -1), "tiny": 5e-324, "big": 1.7976931348623157e308, "e21": 1e21}},
	}
	for i, rec := range fixed {
		t.Run(fmt.Sprintf("fixed%d", i), func(t *testing.T) { checkIndexCopy(t, rec) })
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		checkIndexCopy(t, randomRecord(r))
	}
}

// scribble overwrites everything reachable from v in place: every map
// gains a key and has its values rewritten, every slice element and
// struct field is changed. Memory a copy still shares with v shows up as
// a change in the copy.
func scribble(t *testing.T, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.String:
		v.SetString(v.String() + "~scribbled")
	case reflect.Float64:
		v.SetFloat(v.Float() + 1234.5)
	case reflect.Int:
		v.SetInt(v.Int() + 99)
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			scribble(t, v.Field(i))
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			scribble(t, v.Index(i))
		}
	case reflect.Map:
		for _, k := range v.MapKeys() {
			// A map's values are not addressable: scribble a copy of the
			// value (which still shares a slice's backing array, the very
			// aliasing under test) and store it back.
			val := reflect.New(v.Type().Elem()).Elem()
			val.Set(v.MapIndex(k))
			scribble(t, val)
			v.SetMapIndex(k, val)
		}
		k := reflect.New(v.Type().Key()).Elem()
		fill(t, k)
		scribble(t, k)
		val := reflect.New(v.Type().Elem()).Elem()
		fill(t, val)
		v.SetMapIndex(k, val)
	case reflect.Ptr:
		scribble(t, v.Elem())
	default:
		t.Fatalf("scribble: teach this test about %s, then check (*RunRecord).clone copies it", v.Kind())
	}
}

// fill sets v, and everything under it, to something non-zero.
func fill(t *testing.T, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.String:
		v.SetString("x")
	case reflect.Float64:
		v.SetFloat(1.5)
	case reflect.Int:
		v.SetInt(7)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(t, v.Field(i))
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			fill(t, v.Index(i))
		}
	case reflect.Map:
		v.Set(reflect.MakeMap(v.Type()))
		k := reflect.New(v.Type().Key()).Elem()
		fill(t, k)
		val := reflect.New(v.Type().Elem()).Elem()
		fill(t, val)
		v.SetMapIndex(k, val)
	case reflect.Ptr:
		v.Set(reflect.New(v.Type().Elem()))
		fill(t, v.Elem())
	default:
		t.Fatalf("fill: teach this test about %s, then check (*RunRecord).clone copies it", v.Kind())
	}
}

// TestCloneCoversEveryField is the guard for the next field added to
// RunRecord or NodeResult: with every field set, the clone must equal a
// JSON round trip of the record, and must still equal it after the
// original has been overwritten in place — which a map, slice or pointer
// field that clone copies by assignment does not survive.
func TestCloneCoversEveryField(t *testing.T) {
	rec := &RunRecord{}
	fill(t, reflect.ValueOf(rec).Elem())
	data, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	want := &RunRecord{}
	if err := json.Unmarshal(data, want); err != nil {
		t.Fatal(err)
	}
	c := rec.clone()
	if !reflect.DeepEqual(c, want) {
		t.Fatalf("clone of a fully set record differs from its JSON round trip:\nclone %#v\nwant  %#v", c, want)
	}
	scribble(t, reflect.ValueOf(rec).Elem())
	if reflect.DeepEqual(rec, want) {
		t.Fatal("scribble changed nothing")
	}
	if !reflect.DeepEqual(c, want) {
		t.Fatalf("overwriting the original reached its clone — a field is copied by assignment:\nclone %#v\nwant  %#v", c, want)
	}
}

// TestSaveDetachesCallerRecord: whatever the caller does to its record
// after Save, in every map and slice of it, Load keeps returning what
// was saved, and what a reopened store decodes from the file.
func TestSaveDetachesCallerRecord(t *testing.T) {
	dir := t.TempDir()
	st := openDurable(t, dir, DurableOptions{Create: true, WAL: true})
	rec := corpusShapedRecord("r1", 40)
	rec.Resources["nil"] = nil
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want, err := decodeRecord(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save(rec); err != nil {
		t.Fatal(err)
	}
	scribble(t, reflect.ValueOf(rec).Elem())

	got, err := st.Load("poisson", "C", "r1")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("mutating the caller's record after Save changed what Load returns")
	}
	if m := st.preImage(want.Key()); !bytes.Equal(m.Data, data) {
		t.Fatal("preImage of the indexed copy is not the stored bytes")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st = openDurable(t, dir, DurableOptions{WAL: true})
	defer st.Close()
	reopened, err := st.Load("poisson", "C", "r1")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(reopened, got) {
		t.Fatal("a reopened store decodes a different record than the one the index held")
	}
}

// TestValidateRejectsInvalidUTF8: the JSON encoder would rewrite a stray
// byte to U+FFFD, leaving the file spelling a different string than the
// index key, the file name and the journal frame. Every string position
// of a record is held to valid UTF-8 instead.
func TestValidateRejectsInvalidUTF8(t *testing.T) {
	const bad = "a\xff"
	cases := map[string]func(*RunRecord){
		"app":            func(r *RunRecord) { r.App = bad },
		"version":        func(r *RunRecord) { r.Version = bad },
		"run id":         func(r *RunRecord) { r.RunID = bad },
		"hierarchy name": func(r *RunRecord) { r.Resources[bad] = []string{"/x"} },
		"resource path":  func(r *RunRecord) { r.Resources["Code"][1] = bad },
		"process name":   func(r *RunRecord) { r.ProcNodes[bad] = "sp01" },
		"machine node":   func(r *RunRecord) { r.ProcNodes["p1"] = bad },
		"result hyp":     func(r *RunRecord) { r.Results[0].Hyp = bad },
		"result focus":   func(r *RunRecord) { r.Results[1].Focus = bad },
		"result state":   func(r *RunRecord) { r.Results[1].State = "false\xff" },
		"result prio":    func(r *RunRecord) { r.Results[0].Priority = bad },
		"usage path":     func(r *RunRecord) { r.Usage[bad] = 0.5 },
	}
	for name, breakIt := range cases {
		rec := sampleRecord("r1")
		breakIt(rec)
		if err := rec.Validate(); err == nil {
			t.Errorf("%s: a string that is not valid UTF-8 was accepted", name)
		}
	}
	ok := sampleRecord("r1")
	ok.App, ok.Resources["Code"][1], ok.Usage["/Code/ünï�"] = "poisson-π", "/Code/ünï", 0.1
	if err := ok.Validate(); err != nil {
		t.Errorf("valid multi-byte UTF-8 rejected: %v", err)
	}
}

// TestSaveRefusesInvalidUTF8: the save is refused outright — nothing is
// journaled, written or indexed — on a plain and on a sharded store, for
// a single save and for a batch.
func TestSaveRefusesInvalidUTF8(t *testing.T) {
	open := map[string]func(dir string) (Storage, error){
		"plain": func(dir string) (Storage, error) {
			return OpenStoreDurable(dir, DurableOptions{Create: true, WAL: true})
		},
		"sharded": func(dir string) (Storage, error) {
			return OpenSharded(dir, 2, DurableOptions{Create: true, WAL: true})
		},
	}
	for name, openStore := range open {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			st, err := openStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			bad := sampleRecord("r1")
			bad.App = "a\xff"
			if err := st.Save(bad); err == nil {
				t.Error("Save accepted an app name that is not valid UTF-8")
			}
			if n, err := st.PutBatch([]*RunRecord{sampleRecord("ok"), bad}); err == nil || n != 0 {
				t.Errorf("PutBatch with an invalid record = (%d, %v), want (0, error)", n, err)
			}
			if st.Len() != 0 {
				t.Errorf("store indexes %d records after refused saves", st.Len())
			}
			if n := st.WALStats().Appends; n != 0 {
				t.Errorf("refused saves were journaled: %d appends", n)
			}
			filepath.Walk(dir, func(path string, fi os.FileInfo, err error) error {
				if err == nil && filepath.Ext(path) == ".json" && filepath.Base(path) != shardManifestName {
					t.Errorf("refused saves left a record file: %s", path)
				}
				return nil
			})
		})
	}
}
