package history

import (
	"bytes"
	"encoding/json"
	"slices"
)

// Encoded is a record decoded from a put body by DecodePut or
// DecodePutBatch, with the body's bytes when they are its canonical
// encoding — the client sends them so — which the store then writes as
// they arrived, indexing the record as decoded: a record is encoded
// once, by its writer. Only this package fills one, so the bytes a store
// is handed are always the record's, and the record is nobody else's.
type Encoded struct {
	rec  *RunRecord
	data []byte // EncodeRecord(rec), or nil: encode on the write
}

// Record is the decoded record (nil for a batch's null), read-only.
func (e Encoded) Record() *RunRecord { return e.rec }

// encoded reads one record under the canonical check, keeping its bytes,
// outdented to depth 0, when they are RecordShape's at d's depth.
func (d *Decoder) encoded() Encoded {
	d.canon = true
	d.peek()
	start, level := d.pos, d.level
	e := Encoded{rec: &RunRecord{}}
	RecordShape.Decode(d, e.rec)
	// The index keeps the record: results reserved from too many bytes, or
	// grown a quarter at a time, are cut down to the room a clone's take.
	if r := e.rec.Results; cap(r)-len(r) > len(r)/8 {
		e.rec.Results = slices.Clone(r)
	}
	if d.canon && !d.bad {
		e.data = d.data[start:d.pos]
		if level > 0 {
			e.data = outdent(e.data, 2*level)
		}
	}
	return e
}

// outdent copies b with the first n bytes after each newline dropped:
// the 2*level spaces every line break of a record checked at that depth
// carries beyond depth 0's, which the check has seen there.
func outdent(b []byte, n int) []byte {
	out := make([]byte, 0, len(b))
	for {
		i := bytes.IndexByte(b, '\n')
		if i < 0 {
			return append(out, b...)
		}
		out = append(out, b[:i+1]...)
		b = b[i+1+n:]
	}
}

// DecodePut decodes the body of PUT /api/v1/run. A body the strict
// decoder bails on is encoding/json's, first JSON value only, and its
// record comes without bytes.
func DecodePut(body []byte) (Encoded, error) {
	d := Decoder{data: body}
	if e := d.encoded(); d.End() {
		return e, nil
	}
	e := Encoded{rec: &RunRecord{}}
	return e, json.NewDecoder(bytes.NewReader(body)).Decode(e.rec)
}

// The client's layout of a batch body: records at depth 2, each ending
// on a batchEnd line, which nothing inside a canonical record spells.
const (
	batchHead = "{\n  \"runs\": [\n    "
	batchEnd  = "\n    }"
	batchSep  = ",\n    "
	batchTail = "\n  ]\n}\n"
)

var putRunsKeys = []string{`"runs": `}

// DecodePutBatch decodes the body of POST /api/v1/runs/batch, {"runs":
// [records]}, checking each record on its own. A body in the client's
// layout is cut into its records, decoded on GOMAXPROCS workers; any
// other, or one a piece of which is not one whole record, is read in one
// pass; and one the strict decoder bails on is encoding/json's.
func DecodePutBatch(body []byte) ([]Encoded, error) {
	if recs, ok := decodeBatchSplit(body); ok {
		return recs, nil
	}
	if recs, ok := decodeBatchSeq(body); ok {
		return recs, nil
	}
	var req struct {
		Runs []*RunRecord `json:"runs"`
	}
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil || req.Runs == nil {
		return nil, err
	}
	recs := make([]Encoded, len(req.Runs))
	for i, rec := range req.Runs {
		recs[i].rec = rec
	}
	return recs, nil
}

func decodeBatchSeq(body []byte) ([]Encoded, bool) {
	d := Decoder{data: body, canon: true} // the layout of the envelope too, to reach the records' depth
	var recs []Encoded
	d.object(putRunsKeys, func(int) {
		recs = []Encoded{}
		d.array(func() { recs = append(recs, d.encoded()) })
	})
	return recs, d.End()
}

func decodeBatchSplit(body []byte) ([]Encoded, bool) {
	rest, head := bytes.CutPrefix(body, []byte(batchHead))
	rest, tail := bytes.CutSuffix(rest, []byte(batchTail))
	if !head || !tail {
		return nil, false
	}
	pieces := cutBatch(rest)
	recs, bad := make([]Encoded, len(pieces)), make([]bool, len(pieces))
	eachParallel(len(pieces), func(i int) {
		if i < len(pieces)-1 {
			pieces[i] = pieces[i][:len(pieces[i])-len(batchSep)]
		}
		d := Decoder{data: pieces[i], level: 2}
		recs[i] = d.encoded()
		bad[i] = !d.End()
	})
	return recs, !slices.Contains(bad, true)
}

// cutBatch cuts rest, a client-layout body less its head and tail, into
// the pieces bytes.SplitAfter(rest, batchEnd+batchSep) yields, found from
// the closing braces: ten times rarer than the separator's newlines.
func cutBatch(rest []byte) (pieces [][]byte) {
	start := 0
	for i := len(batchEnd) - 1; i < len(rest); {
		j := bytes.IndexByte(rest[i:], '}')
		if j < 0 {
			break
		}
		j += i
		if string(rest[j+1-len(batchEnd):j+1]) != batchEnd || !bytes.HasPrefix(rest[j+1:], []byte(batchSep)) {
			i = j + 1
			continue
		}
		cut := j + 1 + len(batchSep)
		pieces, start = append(pieces, rest[start:cut]), cut
		i = cut + len(batchEnd) - 1
	}
	return append(pieces, rest[start:])
}

// SaveEncoded writes decoded put bodies to st through its PutEncoded —
// Store's, ShardedStore's, the replication gate's — or, when st has none,
// through Save (one record) or PutBatch, so that a decorator without the
// method is called, never stepped around.
func SaveEncoded(st Storage, recs []Encoded) (int, error) {
	if w, ok := st.(interface{ PutEncoded([]Encoded) (int, error) }); ok {
		return w.PutEncoded(recs)
	}
	if len(recs) == 1 && recs[0].rec != nil {
		if err := st.Save(recs[0].rec); err != nil {
			return 0, err
		}
		return 1, nil
	}
	plain := make([]*RunRecord, len(recs))
	for i, e := range recs {
		plain[i] = e.rec
	}
	return st.PutBatch(plain)
}
