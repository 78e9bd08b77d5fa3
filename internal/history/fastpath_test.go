package history

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"regexp"
	"testing"
)

// The Decoder's three fast paths — an object's next member matched whole
// (wholeKey), an ASCII literal's HTML escapes (escapedASCII) and a short
// float's one scan — held to the general path (Decoder.general) and to
// encoding/json over canonical records and query responses and over
// perturbations of them aimed at each path's fallbacks.

type fastHit struct {
	Version string     `json:"version"`
	RunID   string     `json:"run_id"`
	Result  NodeResult `json:"result"`
}

type fastQuery struct {
	App  string    `json:"app"`
	Hits []fastHit `json:"hits"`
}

// fastQueryShape is internal/server's query response, which the client
// decodes without the canonical check.
var fastQueryShape = NewShape(
	Field("app", func(q *fastQuery) *string { return &q.App }, String),
	Field("hits", func(q *fastQuery) *[]fastHit { return &q.Hits }, ArrayOf(NewShape(
		Field("version", func(h *fastHit) *string { return &h.Version }, String),
		Field("run_id", func(h *fastHit) *string { return &h.RunID }, String),
		Field("result", func(h *fastHit) *NodeResult { return &h.Result }, ResultShape.Value()),
	).Value())),
)

// decodeWith reads data into a new T, with or without the canonical
// check and on the fast or the general path; it reports End and, under
// the check, its verdict.
func decodeWith[T any](s *Shape[T], data []byte, canon, general bool) (*T, bool, bool) {
	d := Decoder{data: data, canon: canon, general: general}
	v := new(T)
	s.Decode(&d, v)
	ok := d.End()
	return v, ok, canon && d.canon
}

// checkFastPaths decodes data both ways, checked and not: End, the
// value and the verdict must agree, a value must be encoding/json's, and
// the verdict must say whether data is the value's canonical encoding.
func checkFastPaths[T any](t *testing.T, s *Shape[T], data []byte) {
	t.Helper()
	for _, canon := range []bool{false, true} {
		fast, okFast, verdict := decodeWith(s, data, canon, false)
		gen, okGen, genVerdict := decodeWith(s, data, canon, true)
		if okFast != okGen {
			t.Fatalf("canon %v: End() = %v on the fast path, %v on the general one:\n%s", canon, okFast, okGen, data)
		}
		if !okFast {
			continue
		}
		ref := new(T)
		if err := json.Unmarshal(data, ref); err != nil {
			t.Fatalf("canon %v: decoded what encoding/json refuses (%v):\n%s", canon, err, data)
		}
		a, _ := json.Marshal(fast)
		b, _ := json.Marshal(gen)
		c, _ := json.Marshal(ref)
		if !reflect.DeepEqual(fast, gen) || !reflect.DeepEqual(fast, ref) || !bytes.Equal(a, b) || !bytes.Equal(a, c) {
			t.Fatalf("canon %v: values differ:\nfast    %s\ngeneral %s\nstdlib  %s\nfrom\n%s", canon, a, b, c, data)
		}
		if verdict != genVerdict {
			t.Fatalf("canonical verdict %v on the fast path, %v on the general one:\n%s", verdict, genVerdict, data)
		}
		if own, _ := s.Append(nil, fast, 0); canon && verdict != bytes.Equal(own, data) {
			t.Fatalf("canonical verdict %v, but the bytes are the value's own: %v\n%s", verdict, !verdict, data)
		}
	}
}

var (
	scalarLine = regexp.MustCompile(`\n *"[a-z_]+": [^{\[\n]*,`)
	memberNum  = regexp.MustCompile(`": -?[0-9][0-9.eE+-]*`)
	floatLits  = []string{
		"0", "-0", "-0.0", "0.0", "1.50", "100", "-12.5", "1e5", "1E-7", "2.5e+3",
		"0.12345678901234567", "12345678901234567", "123456789012345", "1234567890.12345",
		"0.000000000000000000000001", "0.0000001", "5e-324", "0.1000", "1e400",
		"0.1234567890123456", "9007199254740991", "9007199254740993", "-0.9007199254740993",
		"123456789012345678901234567890", "18446744073709551621", "1844674407370955.1621",
	}
	escapes = []string{
		`\u003C`, `<`, `\u003c` + "é", `\u003c` + "\u2028", `\u003c` + "<", `\u0041`,
		`\u003c\n`, `\u003c\u00e9`, `\u003c\/`, `\u003`, `\u003c\u003E`, `\u003c\u0026`,
	}
)

// perturb makes one change to data of a kind a fast path must fall back
// on, or must read as the general path does.
func perturb(r *rand.Rand, data []byte) []byte {
	switch r.Intn(7) {
	case 0: // re-indent
		var buf bytes.Buffer
		indent := []string{"", "\t", "   ", " "}[r.Intn(4)]
		if json.Compact(&buf, data) != nil {
			return data
		}
		if indent == "" {
			return buf.Bytes()
		}
		var out bytes.Buffer
		json.Indent(&out, buf.Bytes(), "", indent)
		return out.Bytes()
	case 1: // every object's members in name order, numbers as spelled
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.UseNumber()
		var v any
		if dec.Decode(&v) != nil {
			return data
		}
		out, _ := json.MarshalIndent(v, "", "  ")
		return out
	case 2: // drop a scalar member, an omitempty one among them
		locs := scalarLine.FindAllIndex(data, -1)
		if len(locs) == 0 {
			return data
		}
		l := locs[r.Intn(len(locs))]
		return append(append([]byte{}, data[:l[0]]...), data[l[1]:]...)
	case 3: // another spelling of a number
		locs := memberNum.FindAllIndex(data, -1)
		if len(locs) == 0 {
			return data
		}
		l := locs[r.Intn(len(locs))]
		lit := floatLits[r.Intn(len(floatLits))]
		if r.Intn(3) == 0 && bytes.IndexByte(data[l[0]:l[1]], '.') >= 0 {
			lit = string(data[l[0]+3:l[1]]) + "0" // a trailing zero
		}
		return append(append(append([]byte{}, data[:l[0]+3]...), lit...), data[l[1]:]...)
	case 4: // another escape, or none, around a focus's first
		i := bytes.Index(data, []byte(`\u003c`))
		if i < 0 {
			return data
		}
		return append(append(append([]byte{}, data[:i]...), escapes[r.Intn(len(escapes))]...), data[i+6:]...)
	case 5: // a non-ASCII, line-separator or invalid byte before a focus's first escape or after its last
		i := bytes.Index(data, []byte(`\u003c`))
		if r.Intn(2) == 0 {
			if i = bytes.LastIndex(data, []byte(`\u003e`)); i >= 0 {
				i += 6
			}
		}
		if i < 0 {
			return data
		}
		ins := []string{"é", "\u2028", "\u2029", "\x01", "\xff", `\u00e9`, " "}[r.Intn(7)]
		return append(append(append([]byte{}, data[:i]...), ins...), data[i:]...)
	default: // around a key matched whole: a space more or none after its colon, whitespace before it, a byte of its indentation
		from := r.Intn(len(data))
		i := bytes.Index(data[from:], []byte(`": `))
		if i < 0 {
			return data
		}
		i += from
		j := bytes.LastIndexByte(data[:i], '"')
		switch r.Intn(4) {
		case 0:
			return append(append(append([]byte{}, data[:i+3]...), ' '), data[i+3:]...)
		case 1:
			return append(append([]byte{}, data[:i+2]...), data[i+3:]...)
		case 2:
			return append(append(append([]byte{}, data[:j]...), " \n"...), data[j:]...)
		}
		if j == 0 || data[j-1] != ' ' {
			return data
		}
		out := append([]byte{}, data...) // not whitespace where the indentation was
		out[j-1] = '/'
		return out
	}
}

func TestFastPathsMatchGeneralPath(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	n := 1500
	if testing.Short() {
		n = 300
	}
	for i := 0; i < n; i++ {
		var rec *RunRecord
		switch i % 3 {
		case 0:
			rec = codecRecord(r)
		case 1:
			rec = corpusShapedRecord("shaped", 1+r.Intn(12))
		default:
			rec = sampleRecord("r1")
		}
		data, _ := RecordShape.Marshal(rec, 0)
		q := &fastQuery{App: rec.App}
		for _, nr := range rec.Results {
			q.Hits = append(q.Hits, fastHit{Version: rec.Version, RunID: rec.RunID, Result: nr})
		}
		qdata, _ := fastQueryShape.Marshal(q, 0)
		for _, in := range [][]byte{data, qdata} {
			for k := 0; k < 4; k++ {
				if k > 0 {
					in = perturb(r, in)
				}
				checkFastPaths(t, RecordShape, in)
				checkFastPaths(t, fastQueryShape, in)
			}
		}
	}
}

// realShapedSeeds are fuzz seeds shaped like the records sessions write,
// at a size the mutator gets through: foci behind their two escapes,
// most values 0 and the rest of up to 17 digits, and perturbations of
// those bytes aimed at each fast path's fallbacks.
func realShapedSeeds() [][]byte {
	rec := corpusShapedRecord("real", 4)
	for i := range rec.Results {
		rec.Results[i].Value, rec.Results[i].ConcludedAt = 0, 0
	}
	rec.Results[1].Value = 0.9281200379313796
	rec.Usage = map[string]float64{"/Code/a.f/a": 0, "/Code/b.f/b": 0.03125, "/Code/c.f/c": 12.000000000000002}
	data := EncodeRecord(rec)
	seeds := [][]byte{data}
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 6; i++ {
		seeds = append(seeds, perturb(r, data))
	}
	return seeds
}
