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
	"strings"
	"testing"
)

// The codec's contract, executable: what RecordShape writes is what
// json.MarshalIndent writes, byte for byte; what ParseRecord accepts it
// decodes to what json.Unmarshal decodes; and the encodings this tree
// itself produces never take the slow path. encoding/json is the oracle
// throughout — run these under a newer toolchain and a change to the
// standard library's output is a failed test here, not records whose
// bytes depend on who wrote them.

// codecAlphabet holds every escape class of a JSON string: plain ASCII,
// the two-character escapes, the other control bytes, DEL (which is not
// escaped), the HTML three, the two line separators and their unescaped
// neighbour, and two-, three- and four-byte sequences.
var codecAlphabet = []string{
	"a", "Z", "0", " ", "/", "'", `"`, `\`, "\b", "\f", "\n", "\r", "\t",
	"\x00", "\x01", "\x0b", "\x1f", "\x7f", "<", ">", "&",
	"\u2027", "\u2028", "\u2029", "\u202a", "é", "\u00a0", "π", "世", "\ufffd", "😀", "\U0010ffff",
}

func codecString(r *rand.Rand) string {
	var b strings.Builder
	for n := r.Intn(6); n > 0; n-- {
		b.WriteString(codecAlphabet[r.Intn(len(codecAlphabet))])
	}
	return b.String()
}

// codecFloat draws from the places the float rule changes its mind:
// both zeros, denormals, integers, the powers of ten from 1e-7 to 1e22
// and their neighbours on either side (the 'f'/'e' switch sits at 1e-6
// and 1e21), 17-digit fractions, and arbitrary finite bit patterns.
func codecFloat(r *rand.Rand) float64 {
	sign := float64(1 - 2*r.Intn(2))
	switch r.Intn(8) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return sign * math.Float64frombits(r.Uint64()&(1<<52-1))
	case 3:
		return sign * float64(r.Intn(100000))
	case 4:
		return sign * math.Pow(10, float64(r.Intn(30)-7))
	case 5:
		p := math.Pow(10, float64(r.Intn(30)-7))
		return sign * math.Nextafter(p, p*float64(2*r.Intn(2)))
	case 6:
		return sign * r.Float64()
	}
	for {
		if f := math.Float64frombits(r.Uint64()); finite(f) {
			return f
		}
	}
}

// codecRecord is randomRecord — testing/quick's arbitrary strings and
// keys, nil and empty maps and slices — with about half of its strings
// and floats redrawn from the generators above.
func codecRecord(r *rand.Rand) *RunRecord {
	rec := randomRecord(r)
	str := func(s *string) {
		if r.Intn(2) == 0 {
			*s = codecString(r)
		}
	}
	flt := func(f *float64) {
		if r.Intn(4) != 0 {
			*f = codecFloat(r)
		}
	}
	str(&rec.Version)
	flt(&rec.Duration)
	for i := range rec.Results {
		nr := &rec.Results[i]
		str(&nr.Hyp)
		str(&nr.Focus)
		str(&nr.Priority)
		flt(&nr.Value)
		flt(&nr.Threshold)
		flt(&nr.ConcludedAt)
		nr.Persistent = r.Intn(2) == 0
	}
	for n := r.Intn(4); n > 0 && rec.Resources != nil; n-- {
		rec.Resources[codecString(r)] = []string{codecString(r), codecString(r)}
	}
	for n := r.Intn(4); n > 0 && rec.ProcNodes != nil; n-- {
		rec.ProcNodes[codecString(r)] = codecString(r)
	}
	for n := r.Intn(6); n > 0 && rec.Usage != nil; n-- {
		rec.Usage[codecString(r)] = codecFloat(r)
	}
	for k, v := range rec.Usage {
		if !finite(v) {
			rec.Usage[k] = codecFloat(r)
		}
	}
	return rec
}

// codecFixed are the hand-picked shapes: the two test records, the
// empty record, every map and slice empty, nil and empty side by side,
// and the strings and floats of TestCloneMatchesDecode.
func codecFixed() []*RunRecord {
	return []*RunRecord{
		sampleRecord("r1"),
		corpusShapedRecord("big", 650),
		{App: "a", RunID: "r"},
		{App: "a", RunID: "r", Resources: map[string][]string{}, ProcNodes: map[string]string{}, Results: []NodeResult{}, Usage: map[string]float64{}},
		{App: "a", RunID: "r", Resources: map[string][]string{"nil": nil, "empty": {}, "": {""}}},
		{App: "<a>&\u2028", Version: "\ufffd", RunID: "r\x00\"\\", Usage: map[string]float64{"-0": math.Copysign(0, -1), "tiny": 5e-324, "big": 1.7976931348623157e308, "e21": 1e21, "e-7": 1e-7, "e-9": 1.5e-9, "e-10": 1e-10}},
		{App: "a", RunID: "r", PairsTested: -3, TrueCount: 1, Results: []NodeResult{{State: "true", Persistent: true}, {State: "false"}}},
	}
}

// wantRecordBytes is the oracle: encoding/json's indented encoding.
func wantRecordBytes(t testing.TB, rec *RunRecord) []byte {
	t.Helper()
	want, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// hasNil reports whether rec encodes with a null in it: a nil map or
// slice, which the strict decoder leaves to encoding/json. No record the
// tools build has one.
func hasNil(rec *RunRecord) bool {
	for _, paths := range rec.Resources {
		if paths == nil {
			return true
		}
	}
	return rec.Resources == nil || rec.ProcNodes == nil || rec.Results == nil || rec.Usage == nil
}

// checkRecordCodec holds one record to both halves of the contract:
// the direct encoding equals MarshalIndent's at depth 0 and nested, and
// the canonical and the compact encoding both decode on the fast path
// (unless they hold a null) to what json.Unmarshal makes of them.
func checkRecordCodec(t *testing.T, rec *RunRecord) {
	t.Helper()
	want := wantRecordBytes(t, rec)
	if got, _ := RecordShape.Append(nil, rec, 0); !bytes.Equal(got, want) {
		t.Fatalf("RecordShape.Append differs from json.MarshalIndent:\ngot  %s\nwant %s", got, want)
	}
	nested, err := json.MarshalIndent([]*RunRecord{rec}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := RecordShape.Append([]byte("[\n  "), rec, 1)
	if got = append(got, "\n]"...); !bytes.Equal(got, nested) {
		t.Fatalf("RecordShape.Append at depth 1 differs from json.MarshalIndent:\ngot  %s\nwant %s", got, nested)
	}
	compact, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	for _, data := range [][]byte{want, compact} {
		dec, ok := ParseRecord(data)
		if ok == hasNil(rec) {
			t.Fatalf("ParseRecord ok = %v on an encoding of our own, nulls = %v:\n%s", ok, !ok, data)
		}
		if !ok {
			continue
		}
		ref := &RunRecord{}
		if err := json.Unmarshal(data, ref); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(dec, ref) || !bytes.Equal(wantRecordBytes(t, dec), wantRecordBytes(t, ref)) {
			t.Fatalf("ParseRecord differs from json.Unmarshal:\ngot  %#v\nwant %#v", dec, ref)
		}
	}
}

func TestAppendRecordMatchesMarshalIndent(t *testing.T) {
	for i, rec := range codecFixed() {
		t.Run(fmt.Sprintf("fixed%d", i), func(t *testing.T) { checkRecordCodec(t, rec) })
	}
	t.Run("wal-v1", func(t *testing.T) {
		files, err := filepath.Glob(filepath.Join("testdata", "wal-v1", "records", "*.json"))
		if err != nil || len(files) == 0 {
			t.Fatalf("fixture records: %v, %v", files, err)
		}
		for _, path := range files {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			rec, ok := ParseRecord(data)
			if !ok {
				t.Fatalf("%s: the strict decoder bailed on a stored record", path)
			}
			if got, _ := RecordShape.Append(nil, rec, 0); !bytes.Equal(got, data) {
				t.Fatalf("%s: re-encoding a stored record does not reproduce its file", path)
			}
			checkRecordCodec(t, rec)
		}
	})
	t.Run("quick", func(t *testing.T) {
		r := rand.New(rand.NewSource(17))
		for i := 0; i < 1000; i++ {
			checkRecordCodec(t, codecRecord(r))
		}
	})
}

// TestAppendStringMatchesEncodingJSON covers what no stored record can
// hold but MarshalCanonical may be handed: bytes that are not UTF-8,
// which encoding/json writes as \ufffd one byte at a time.
func TestAppendStringMatchesEncodingJSON(t *testing.T) {
	cases := append([]string{
		"", "\xff", "a\xffb", "\xc0\x80", "\xe2\x82", "\xe2\x28\xa1", "\xed\xa0\x80", "\xf4\x90\x80\x80", "\xf0\x9f\x98", "é\xe9",
	}, codecAlphabet...)
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		s := codecString(r)
		if r.Intn(3) == 0 {
			cut := r.Intn(len(s) + 1)
			s = s[:cut] + string([]byte{byte(0x80 + r.Intn(0x80))}) + s[cut:]
		}
		cases = append(cases, s)
	}
	for _, s := range cases {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendString(nil, s); !bytes.Equal(got, want) {
			t.Fatalf("appendString(%q) = %s, encoding/json writes %s", s, got, want)
		}
	}
}

// TestEncodeAllocs: with room in the buffer, encoding a record — map
// keys sorted and all — allocates nothing.
func TestEncodeAllocs(t *testing.T) {
	rec := benchRecord()
	buf := make([]byte, 0, 2*rec.EncodedSizeHint())
	if n := testing.AllocsPerRun(20, func() { buf, _ = RecordShape.Append(buf[:0], rec, 0) }); n != 0 {
		t.Errorf("RecordShape.Append into a pre-sized buffer allocates %v times a record", n)
	}
	if hint, n := rec.EncodedSizeHint(), len(buf); hint < n || hint > n+n/4 {
		t.Errorf("EncodedSizeHint = %d for an encoding of %d bytes: want at least that and at most a quarter more", hint, n)
	}
}

// TestValidateRejectsNonFinite: JSON cannot spell NaN or an infinity,
// and Validate is the only gate in front of an encoder that has no
// error path — so it refuses them, naming the field, and every way into
// a store refuses the record whole.
func TestValidateRejectsNonFinite(t *testing.T) {
	cases := map[string]func(*RunRecord){
		"duration":              func(r *RunRecord) { r.Duration = math.NaN() },
		"result 1: value":       func(r *RunRecord) { r.Results[1].Value = math.Inf(1) },
		"result 0: threshold":   func(r *RunRecord) { r.Results[0].Threshold = math.Inf(-1) },
		"result 1: concluded_a": func(r *RunRecord) { r.Results[1].ConcludedAt = math.NaN() },
		`usage of "/Code/oned`:  func(r *RunRecord) { r.Usage["/Code/oned.f"] = math.NaN() },
	}
	for field, breakIt := range cases {
		rec := sampleRecord("r1")
		breakIt(rec)
		if err := rec.Validate(); err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("%s: Validate = %v, want an error naming the field", field, err)
		}
	}
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
			st, err := openStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			bad := sampleRecord("r1")
			bad.Results[0].Value = math.NaN()
			if err := st.Save(bad); err == nil || !strings.Contains(err.Error(), "result 0: value is NaN") {
				t.Errorf("Save of a NaN value = %v, want Validate's error", err)
			}
			if n, err := st.PutBatch([]*RunRecord{sampleRecord("ok"), bad}); err == nil || n != 0 {
				t.Errorf("PutBatch with a non-finite record = (%d, %v), want (0, error)", n, err)
			}
			if st.Len() != 0 || st.WALStats().Appends != 0 {
				t.Errorf("refused saves left %d records and %d journal appends", st.Len(), st.WALStats().Appends)
			}
		})
	}
}

// bailSeeds is one input per bail condition of the strict decoder, and
// the malformed numbers and nesting the issue names: each must come out
// of the decoder as a bail, never as a value.
var bailSeeds = []string{
	`{"app":"a","extra":1}`,                // unknown key
	`{"App":"a"}`,                          // differently-cased key
	`{"\u0061pp":"a"}`,                     // escaped key
	`{"app":"a","app":"b"}`,                // duplicate key
	`{"usage":{"x":1},"usage":{"y":2}}`,    // duplicate map member (merges in encoding/json)
	`{"results":null}`,                     // null
	`null`,                                 // null document
	`{"app":"\ud83d\ude00"}`,               // surrogate pair
	`{"app":"\ud800"}`,                     // lone surrogate
	`{"app":"\x"}`,                         // malformed escape
	`{"app":"\u12g4"}`,                     // malformed \u
	"{\"app\":\"a\xffb\"}",                 // not UTF-8
	"{\"app\":\"a\nb\"}",                   // raw control byte
	`{"duration":1e999}`,                   // out of range
	`{"duration":01}`,                      // leading zero
	`{"duration":-}`,                       // bare sign
	`{"duration":.5}`,                      // no integer part
	`{"duration":1.}`,                      // no fraction digits
	`{"duration":+1}`,                      // plus sign
	`{"duration":NaN}`,                     // not a number
	`{"pairs_tested":1.0}`,                 // fraction in an int field
	`{"pairs_tested":1e2}`,                 // exponent in an int field
	`{"pairs_tested":9223372036854775808}`, // int overflow
	`{"app":"a"} x`,                        // trailing data
	`{"app":"a"}{"app":"b"}`,               // a second document
	`{"app":"a",}`,                         // trailing comma
	`{"results":[{"persistent":truex}]}`,   // junk after a literal
	`{"results":[{"persistent":1}]}`,       // wrong type
	`{"app":1}`,                            // wrong type
	`{"resources":{"Code":["/Code",]}}`,    // trailing comma in an array
	`{"app":"a"`,                           // unterminated object
	`{"app":"a`,                            // unterminated string
	`["app"]`,                              // wrong document type
	``,                                     // nothing
	"\ufeff{}",                             // byte order mark
	strings.Repeat("[", 10000),             // deeper than encoding/json goes
	`{"resources":` + strings.Repeat("[", 10000),
}

func TestCodecBailsOnWhatItWouldHaveToInterpret(t *testing.T) {
	for _, in := range bailSeeds {
		if rec, ok := ParseRecord([]byte(in)); ok {
			t.Errorf("ParseRecord(%.60q) = %+v, want a bail", in, rec)
		}
	}
	// What it does not bail on: whitespace anywhere, any key order, and
	// escapes in values and map keys.
	for _, in := range []string{
		`{}`,
		" \t\r\n{ \"true_count\" : 0 ,\n\"app\"\t:\"a\" } \n",
		`{"app":"\u00e9\/\b\f\n\r\t\"\\\u0000","usage":{"\u2028k":-0.0e+0,"k":1E5}}`,
		`{"results":[{"persistent":false,"hyp":"h"},{}],"resources":{"":[]}}`,
	} {
		rec, ok := ParseRecord([]byte(in))
		ref := &RunRecord{}
		if err := json.Unmarshal([]byte(in), ref); err != nil {
			t.Fatal(err)
		}
		if !ok || !reflect.DeepEqual(rec, ref) {
			t.Errorf("ParseRecord(%q) = %+v, %v; json.Unmarshal gives %+v", in, rec, ok, ref)
		}
	}
}

// FuzzDecodeRecordMatchesEncodingJSON: whatever the strict decoder
// accepts, encoding/json accepts and decodes to the same value — so
// strict-then-fallback is encoding/json on every input. Anything else is
// a bail, which says nothing and costs only time.
func FuzzDecodeRecordMatchesEncodingJSON(f *testing.F) {
	// The corpus shape at a size the mutator can get through.
	for _, rec := range append(codecFixed()[2:], sampleRecord("r1"), corpusShapedRecord("small", 7)) {
		f.Add(wantRecordBytes(f, rec))
		compact, err := json.Marshal(rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(compact)
	}
	for _, in := range bailSeeds {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, ok := ParseRecord(data)
		if !ok {
			return
		}
		want := &RunRecord{}
		if err := json.Unmarshal(data, want); err != nil {
			t.Fatalf("the strict decoder read %+v out of what encoding/json refuses: %v", got, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("strict decode differs from json.Unmarshal:\ngot  %#v\nwant %#v", got, want)
		}
		// DeepEqual cannot tell -0 from 0; the encodings can. A decoded
		// float may be unencodable only by being out of range, which bails.
		a, errA := json.Marshal(got)
		b, errB := json.Marshal(want)
		if errA != nil || errB != nil || !bytes.Equal(a, b) {
			t.Fatalf("strict decode re-encodes differently from json.Unmarshal's (%v, %v):\ngot  %s\nwant %s", errA, errB, a, b)
		}
	})
}
