package history

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// The storage a put body is written to keeps its bytes.
var (
	_ interface{ PutEncoded([]Encoded) (int, error) } = (*Store)(nil)
	_ interface{ PutEncoded([]Encoded) (int, error) } = (*ShardedStore)(nil)
)

// The put path's contract: a record DecodePut or DecodePutBatch hands
// over with bytes has exactly those bytes as its EncodeRecord, at depth
// 0 whatever depth it arrived at; the bodies the client writes come with
// bytes, and on the fast paths; a body spelled any other way comes
// without, to be encoded on the write as before.

// variantRecord is the record the non-canonical variants spell: two
// processes, two usage paths, a persistent result.
func variantRecord() *RunRecord {
	rec := sampleRecord("r1")
	rec.ProcNodes["p2"] = "sp02"
	rec.Usage["/Code/oned.f/main"] = 0.25
	rec.Results[1].Persistent = true
	return rec
}

// nonCanonical are edits of variantRecord's canonical encoding, each
// into a body both decoders read but AppendRecord would not write.
var nonCanonical = []struct{ name, old, new string }{
	{"reordered members", "\"app\": \"poisson\",\n  \"version\": \"A\",", "\"version\": \"A\",\n  \"app\": \"poisson\","},
	{"persistent false", "\"priority\": \"medium\"\n    },", "\"priority\": \"medium\",\n      \"persistent\": false\n    },"},
	{"0.50", `"value": 0.5,`, `"value": 0.50,`},
	{"1e-07", `"threshold": 0.2,`, `"threshold": 1e-07,`},
	{"-0 in an int", `"pairs_tested": 2,`, `"pairs_tested": -0,`},
	{`\/`, `"/Code",`, `"\/Code",`},
	{"raw <", `\u003c/Code`, `</Code`},
	{"upper-case hex", `\u003c/Code`, `\u003C/Code`},
	{"raw U+2028", `"version": "A"`, "\"version\": \"A\u2028\""},
	{"unsorted keys", "\"p1\": \"sp01\",\n    \"p2\": \"sp02\"", "\"p2\": \"sp02\",\n    \"p1\": \"sp01\""},
	{"duplicate keys", `"p2": "sp02"`, `"p1": "sp02"`},
	{"two spaces after a colon", `"app": "poisson"`, `"app":  "poisson"`},
	{"a tab for an indent", "\n  \"run_id\"", "\n\t\"run_id\""},
	{"an empty map spread out", "\"usage\": {\n    \"/Code/oned.f\": 0.4,\n    \"/Code/oned.f/main\": 0.25\n  }", "\"usage\": {\n  }"},
}

// nonCanonicalBodies spells variantRecord every way nonCanonical lists,
// and compact.
func nonCanonicalBodies(t testing.TB) map[string][]byte {
	t.Helper()
	canonical := string(EncodeRecord(variantRecord()))
	out := map[string][]byte{}
	for _, v := range nonCanonical {
		if !strings.Contains(canonical, v.old) {
			t.Fatalf("%s: %q is not in the canonical encoding", v.name, v.old)
		}
		out[v.name] = []byte(strings.Replace(canonical, v.old, v.new, 1))
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, []byte(canonical)); err != nil {
		t.Fatal(err)
	}
	out["compact"] = compact.Bytes()
	return out
}

// indent spells a depth-0 encoding at depth 2, as a batch element.
func indent(data []byte) []byte {
	return bytes.ReplaceAll(data, []byte("\n"), []byte("\n    "))
}

// batchBody is a batch body in the client's layout: the indented
// encoding of {"runs": recs}, as PutRunsRequest writes it.
func batchBody(t testing.TB, recs ...*RunRecord) []byte {
	t.Helper()
	body, err := json.MarshalIndent(struct {
		Runs []*RunRecord `json:"runs"`
	}{recs}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(body, '\n')
}

// checkEncoded holds one decoded record to the contract: its bytes, when
// it has any, are its encoding, and decode to it.
func checkEncoded(t *testing.T, what string, e Encoded) {
	t.Helper()
	if e.data == nil {
		return
	}
	if want := EncodeRecord(e.rec); !bytes.Equal(e.data, want) {
		t.Fatalf("%s: accepted as canonical, but EncodeRecord differs:\ngot  %q\nwant %q", what, e.data, want)
	}
	if ref, ok := ParseRecord(e.data); !ok || !reflect.DeepEqual(ref, e.rec) {
		t.Fatalf("%s: the record differs from ParseRecord's of its bytes:\ngot  %#v\nwant %#v", what, e.rec, ref)
	}
}

func TestPutBodyTakesFastPath(t *testing.T) {
	// The escapes and the float rule's edges, with no null to bail on.
	escapes := codecFixed()[5]
	escapes.Resources = map[string][]string{"\u2028": {"<>", "\ufffd"}, "": {}}
	escapes.ProcNodes = map[string]string{"&": "\x7f\x1f"}
	escapes.Results = []NodeResult{}
	recs := append(codecFixed(), variantRecord(), escapes)
	var kept []*RunRecord
	for i, rec := range recs {
		if hasNil(rec) {
			continue // null is encoding/json's to read
		}
		kept = append(kept, rec)
		body := append(EncodeRecord(rec), '\n')
		e, err := DecodePut(body)
		if err != nil || e.data == nil {
			t.Fatalf("record %d: DecodePut = %v, bytes %v: a canonical body must keep its bytes", i, err, e.data != nil)
		}
		if &e.data[0] != &body[0] || len(e.data) != len(body)-1 {
			t.Errorf("record %d: the bytes kept are not the body's own, minus its newline", i)
		}
		if got, want := cap(e.rec.Results), cap(slices.Clone(e.rec.Results)); got != want {
			t.Errorf("record %d: the index would keep room for %d results, a clone for %d", i, got, want)
		}
		checkEncoded(t, fmt.Sprintf("record %d", i), e)
	}
	got, ok := decodeBatchSplit(batchBody(t, kept...))
	if !ok || len(got) != len(kept) {
		t.Fatalf("a batch in the client's layout does not split: ok %v, %d of %d records", ok, len(got), len(kept))
	}
	for i, e := range got {
		if e.data == nil {
			t.Errorf("batch record %d came without bytes", i)
		}
		checkEncoded(t, fmt.Sprintf("batch record %d", i), e)
	}
	if seq, ok := decodeBatchSeq(batchBody(t, kept...)); !ok || !reflect.DeepEqual(seq, got) {
		t.Errorf("the one-pass decoder reads the batch otherwise than the split (ok %v)", ok)
	}
	compact, err := json.Marshal(struct {
		Runs []*RunRecord `json:"runs"`
	}{kept})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := decodeBatchSplit(compact); ok {
		t.Error("a compact batch split")
	}
	seq, ok := decodeBatchSeq(compact)
	if !ok || len(seq) != len(kept) {
		t.Fatalf("the one-pass decoder bailed on a compact batch")
	}
	for i, e := range seq {
		if e.data != nil {
			t.Errorf("compact batch record %d came with bytes", i)
		}
	}
}

// TestCanonicalCheckRefusesVariants: every variant decodes to what
// encoding/json makes of it, and without bytes — alone, at depth 2 in a
// batch, and beside a canonical record that keeps its own.
func TestCanonicalCheckRefusesVariants(t *testing.T) {
	good := EncodeRecord(sampleRecord("good"))
	for name, body := range nonCanonicalBodies(t) {
		want := &RunRecord{}
		if err := json.Unmarshal(body, want); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		e, err := DecodePut(body)
		if err != nil || e.data != nil || !reflect.DeepEqual(e.rec, want) {
			t.Errorf("%s: DecodePut = %v, bytes %v, record equal to encoding/json's %v", name, err, e.data != nil, reflect.DeepEqual(e.rec, want))
		}
		batch := []byte(batchHead + string(indent(good)) + batchSep + string(indent(body)) + batchTail)
		recs, err := DecodePutBatch(batch)
		if err != nil || len(recs) != 2 {
			t.Fatalf("%s: DecodePutBatch = %d records, %v", name, len(recs), err)
		}
		if recs[0].data == nil || recs[1].data != nil || !reflect.DeepEqual(recs[1].rec, want) {
			t.Errorf("%s: in a batch, bytes %v and %v, want the canonical record's only", name, recs[0].data != nil, recs[1].data != nil)
		}
		checkEncoded(t, name, recs[0])
	}
}

// TestPlainShortestImpliesAppendFloat: a literal plainShortest vouches
// for is what appendFloat writes for its value, over decimals of every
// shape around the rule's edges — up to 16 significant digits, a
// magnitude from 1e-9 to 1e26 — and over appendFloat's own output; and
// the values records hold take the shortcut.
func TestPlainShortestImpliesAppendFloat(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	check := func(lit string) {
		f, err := strconv.ParseFloat(lit, 64)
		if err == nil && plainShortest([]byte(lit), f) {
			if got := string(appendFloat(nil, f)); got != lit {
				t.Fatalf("plainShortest(%s) = true, but appendFloat writes %s", lit, got)
			}
		}
	}
	for i := 0; i < 200000; i++ {
		digits := []byte{byte('1' + r.Intn(9))}
		for n := r.Intn(16); n > 0; n-- {
			digits = append(digits, byte('0'+r.Intn(10)))
		}
		var lit string
		switch r.Intn(3) {
		case 0:
			lit = "0." + strings.Repeat("0", r.Intn(9)) + string(digits)
		case 1:
			p := 1 + r.Intn(len(digits))
			lit = string(digits[:p]) + "." + string(digits[p:])
			lit = strings.TrimSuffix(lit, ".")
		default:
			lit = string(digits) + strings.Repeat("0", r.Intn(11))
		}
		if r.Intn(2) == 0 {
			lit = "-" + lit
		}
		check(lit)
		check(string(appendFloat(nil, codecFloat(r))))
	}
	for _, lit := range []string{"0", "-0", "0.5", "409.5", "0.2", "0.000001", "123456789012345"} {
		if f, _ := strconv.ParseFloat(lit, 64); !plainShortest([]byte(lit), f) {
			t.Errorf("plainShortest(%s) = false, want the shortcut", lit)
		}
	}
}

// checkOutdent spells a canonical encoding at depths 1 to 3 and holds
// outdent's one pass to the bytes.ReplaceAll it replaced, and both to the
// depth-0 bytes.
func checkOutdent(t *testing.T, data []byte) {
	t.Helper()
	for level := 1; level <= 3; level++ {
		deep := bytes.ReplaceAll(data, []byte("\n"), []byte(lineBreak[:1+2*level]))
		got := outdent(deep, 2*level)
		if want := bytes.ReplaceAll(deep, []byte(lineBreak[:1+2*level]), []byte("\n")); !bytes.Equal(got, want) || !bytes.Equal(got, data) {
			t.Fatalf("depth %d: outdent differs from bytes.ReplaceAll:\ngot  %.400q\nwant %.400q", level, got, want)
		}
	}
}

// TestOutdentMatchesReplaceAll runs checkOutdent over the canonical
// encodings FuzzCanonicalRecordBytes is seeded with.
func TestOutdentMatchesReplaceAll(t *testing.T) {
	for _, rec := range append(codecFixed()[2:], sampleRecord("r1"), corpusShapedRecord("small", 7), variantRecord()) {
		checkOutdent(t, EncodeRecord(rec))
	}
}

// FuzzCanonicalRecordBytes: whatever the checking decode accepts as
// canonical is byte for byte EncodeRecord of the record it returns, and
// that record is ParseRecord's of those bytes — for a put body at depth
// 0, and for the same bytes as a batch element at depth 2, outdented,
// through either batch decoder. And the decode reads what encoding/json
// reads, to the same records.
func FuzzCanonicalRecordBytes(f *testing.F) {
	for _, rec := range append(codecFixed()[2:], sampleRecord("r1"), corpusShapedRecord("small", 7), variantRecord()) {
		canonical := EncodeRecord(rec)
		f.Add(canonical)
		f.Add(indent(canonical))
		compact, err := json.Marshal(rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(compact)
		f.Add(append(compact, batchSep...)) // a trailing comma, as a batch element
	}
	for _, body := range nonCanonicalBodies(f) {
		f.Add(body)
		f.Add(indent(body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := DecodePut(data)
		want := &RunRecord{}
		werr := json.NewDecoder(bytes.NewReader(data)).Decode(want)
		if (err == nil) != (werr == nil) || err == nil && !reflect.DeepEqual(e.rec, want) {
			t.Fatalf("DecodePut = %v, encoding/json's stream decoder = %v, or their records differ", err, werr)
		}
		if err == nil && e.data != nil {
			checkEncoded(t, "depth 0", e)
			checkOutdent(t, e.data)
		}
		body := []byte(batchHead + string(data) + batchTail)
		recs, err := DecodePutBatch(body)
		var batch struct{ Runs []*RunRecord }
		werr = json.NewDecoder(bytes.NewReader(body)).Decode(&batch)
		if (err == nil) != (werr == nil) || err == nil && len(recs) != len(batch.Runs) {
			t.Fatalf("DecodePutBatch = %d records, %v; encoding/json's = %d, %v", len(recs), err, len(batch.Runs), werr)
		}
		for i := range recs {
			if !reflect.DeepEqual(recs[i].rec, batch.Runs[i]) {
				t.Fatalf("batch record %d differs from encoding/json's", i)
			}
		}
		split, splitOK := decodeBatchSplit(body)
		seq, seqOK := decodeBatchSeq(body)
		if splitOK && (!seqOK || !reflect.DeepEqual(split, seq)) {
			t.Fatalf("the split batch decode differs from the one-pass decode (one-pass ok %v)", seqOK)
		}
		for i, e := range seq {
			checkEncoded(t, fmt.Sprintf("depth 2, record %d", i), e)
		}
	})
}
