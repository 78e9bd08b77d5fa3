package history

import (
	"bytes"
	"math"
	"math/bits"
	"slices"
	"strconv"
	"unicode/utf8"

	"repro/internal/consultant"
)

// The direct JSON codec of the wire shapes that carry results: a
// record's file, journal and response bytes are written, and read back,
// by code that knows the record's shape instead of by reflection.
//
// The encoder spells out FORMATS.md "Canonical encoding" — what
// json.MarshalIndent(v, "", "  ") has always produced for these types,
// byte for byte, now independent of the toolchain's encoding/json. The
// decoder is strict: it reads exactly the documents
// whose meaning needs no interpretation, and bails on everything else —
// the caller then runs encoding/json over the same bytes, so any input
// yields encoding/json's value or encoding/json's error. The tests in
// codec_test.go hold both halves to the standard library. The
// serialized interval (internal/postmortem) and its batch envelope
// (internal/ingest) are written and read the same way, with this file's
// appenders and its Decoder.

// ---- encode --------------------------------------------------------

const hexDigits = "0123456789abcdef"

// jsonSafe marks the ASCII bytes a JSON string carries unescaped: every
// printable byte except the quote, the backslash and the three
// characters encoding/json escapes for HTML embedding.
var jsonSafe = func() (t [utf8.RuneSelf]bool) {
	for c := byte(0x20); c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

// AppendString appends s as a JSON string literal: `"` and `\` behind a
// backslash, \b \f \n \r \t by name, every other control byte and
// < > & as \u00XX, U+2028 and U+2029 as \u2028 and \u2029, a byte that
// is not valid UTF-8 as \ufffd, everything else as itself.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if jsonSafe[c] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// AppendFloat appends a finite f the way encoding/json spells a
// float64: the shortest decimal that round-trips, in plain notation,
// or in exponent notation below 1e-6 and from 1e21 with a two-digit
// exponent's leading zero dropped (e-09 becomes e-9).
func AppendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

// lineBreak is a line break and indentation enough for every level a
// record reaches (a batch element's result members sit at level 5).
const lineBreak = "\n                "

// appendIndent starts a line at the given nesting depth.
func appendIndent(dst []byte, depth int) []byte {
	if n := 1 + 2*depth; n <= len(lineBreak) {
		return append(dst, lineBreak[:n]...)
	}
	dst = append(dst, '\n')
	for ; depth > 0; depth-- {
		dst = append(dst, ' ', ' ')
	}
	return dst
}

// appendKey starts an object member: a comma unless it is the first,
// the line, the key (a constant that needs no escaping) and ": ".
func appendKey(dst []byte, first bool, depth int, key string) []byte {
	if !first {
		dst = append(dst, ',')
	}
	dst = appendIndent(dst, depth)
	dst = append(dst, '"')
	dst = append(dst, key...)
	return append(dst, '"', ':', ' ')
}

// appendMap appends m as an object whose opening brace sits at depth:
// null when nil, {} when empty, otherwise one member a line in key
// order, each value written by val.
func appendMap[V any](dst []byte, m map[string]V, depth int, val func(dst []byte, v V) []byte) []byte {
	if m == nil {
		return append(dst, "null"...)
	}
	if len(m) == 0 {
		return append(dst, '{', '}')
	}
	var few [64]string // more keys than any record the tools build has; a larger map spills to the heap
	keys := few[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	dst = append(dst, '{')
	for i, k := range keys {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendIndent(dst, depth+1)
		dst = AppendString(dst, k)
		dst = append(dst, ':', ' ')
		dst = val(dst, m[k])
	}
	dst = appendIndent(dst, depth)
	return append(dst, '}')
}

// AppendArray appends n elements as an array whose opening bracket sits
// at depth: null when isNil, [] when empty, otherwise one element a line.
func AppendArray(dst []byte, n int, isNil bool, depth int, elem func(dst []byte, i int) []byte) []byte {
	if isNil {
		return append(dst, "null"...)
	}
	if n == 0 {
		return append(dst, '[', ']')
	}
	dst = append(dst, '[')
	for i := 0; i < n; i++ {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendIndent(dst, depth+1)
		dst = elem(dst, i)
	}
	dst = appendIndent(dst, depth)
	return append(dst, ']')
}

// AppendResult appends nr's canonical encoding, its opening brace at
// the given nesting depth. Its floats must be finite (CheckFinite).
func AppendResult(dst []byte, nr *NodeResult, depth int) []byte {
	dst = append(dst, '{')
	dst = AppendString(appendKey(dst, true, depth+1, "hyp"), nr.Hyp)
	dst = AppendString(appendKey(dst, false, depth+1, "focus"), nr.Focus)
	dst = AppendString(appendKey(dst, false, depth+1, "state"), nr.State)
	dst = AppendFloat(appendKey(dst, false, depth+1, "value"), nr.Value)
	dst = AppendFloat(appendKey(dst, false, depth+1, "threshold"), nr.Threshold)
	dst = AppendFloat(appendKey(dst, false, depth+1, "concluded_at"), nr.ConcludedAt)
	dst = AppendString(appendKey(dst, false, depth+1, "priority"), nr.Priority)
	if nr.Persistent {
		dst = append(appendKey(dst, false, depth+1, "persistent"), "true"...)
	}
	dst = appendIndent(dst, depth)
	return append(dst, '}')
}

// AppendRecord appends r's canonical encoding — the one function that
// produces a record's file bytes — with its opening brace at the given
// nesting depth (0 for a record file, a journal frame and a get_run
// body; deeper inside an envelope). There is no trailing newline. The
// record's floats must be finite, which Validate (and CheckFinite alone)
// guarantees; with room in dst, encoding allocates nothing.
func AppendRecord(dst []byte, r *RunRecord, depth int) []byte {
	dst = append(dst, '{')
	dst = AppendString(appendKey(dst, true, depth+1, "app"), r.App)
	dst = AppendString(appendKey(dst, false, depth+1, "version"), r.Version)
	dst = AppendString(appendKey(dst, false, depth+1, "run_id"), r.RunID)
	dst = AppendFloat(appendKey(dst, false, depth+1, "duration"), r.Duration)
	dst = appendKey(dst, false, depth+1, "resources")
	dst = appendMap(dst, r.Resources, depth+1, func(dst []byte, paths []string) []byte {
		return AppendArray(dst, len(paths), paths == nil, depth+2, func(dst []byte, i int) []byte {
			return AppendString(dst, paths[i])
		})
	})
	dst = appendKey(dst, false, depth+1, "proc_nodes")
	dst = appendMap(dst, r.ProcNodes, depth+1, AppendString)
	dst = appendKey(dst, false, depth+1, "results")
	dst = AppendArray(dst, len(r.Results), r.Results == nil, depth+1, func(dst []byte, i int) []byte {
		return AppendResult(dst, &r.Results[i], depth+2)
	})
	dst = appendKey(dst, false, depth+1, "usage")
	dst = appendMap(dst, r.Usage, depth+1, AppendFloat)
	dst = strconv.AppendInt(appendKey(dst, false, depth+1, "pairs_tested"), int64(r.PairsTested), 10)
	dst = strconv.AppendInt(appendKey(dst, false, depth+1, "true_count"), int64(r.TrueCount), 10)
	dst = appendIndent(dst, depth)
	return append(dst, '}')
}

// EncodedSizeHint estimates the length of r's canonical encoding, for
// sizing the buffer AppendRecord appends to: the long strings' own
// lengths plus what keys, numbers and indentation (up to depth 2) add.
// A low guess costs one buffer growth, a high one a little slack.
func (r *RunRecord) EncodedSizeHint() int {
	n := 1<<10 + 64*(len(r.ProcNodes)+len(r.Usage))
	for _, paths := range r.Resources {
		for _, p := range paths {
			n += 32 + len(p)
		}
	}
	for i := range r.Results {
		n += 240 + len(r.Results[i].Hyp) + len(r.Results[i].Focus)
	}
	for path := range r.Usage {
		n += len(path)
	}
	return n
}

// EncodeRecord returns r's canonical encoding in a buffer of its own.
func EncodeRecord(r *RunRecord) []byte {
	return AppendRecord(make([]byte, 0, r.EncodedSizeHint()), r, 0)
}

// ---- decode --------------------------------------------------------

// Decoder is the strict single-pass JSON reader of the codec. It
// accepts any whitespace and any key order, and bails — stickily, see
// End — on whatever it would have to interpret rather than read: an
// unknown, differently-cased, escaped or repeated member name, null, a
// surrogate or malformed escape, a raw control byte, a byte sequence
// that is not valid UTF-8, a number outside the JSON grammar or the
// range of its field, a missing or surplus separator, trailing data.
// What it does accept it decodes exactly as encoding/json would, into
// strings copied out of the input.
type Decoder struct {
	data []byte
	pos  int
	bad  bool
	buf  []byte // unescape scratch

	// canon is the canonical check (see encoded): it stays true while
	// what was read since it was set is AppendRecord's spelling, at the
	// nesting depth level; spell is the scratch a float is re-spelled in.
	canon bool
	level int
	spell []byte
}

// NewDecoder reads data.
func NewDecoder(data []byte) *Decoder { return &Decoder{data: data} }

// bail gives up on the input; every later read is a no-op.
func (d *Decoder) bail() {
	d.bad = true
	d.pos = len(d.data)
}

// End reports whether the whole input was read without bailing: only
// then is what was decoded meaningful.
func (d *Decoder) End() bool {
	d.peek()
	return !d.bad && d.pos == len(d.data)
}

// peek skips whitespace and returns the next byte without consuming
// it, 0 at the end of the input.
func (d *Decoder) peek() byte {
	for i := d.pos; i < len(d.data); i++ {
		if c := d.data[i]; c > ' ' || (c != ' ' && c != '\n' && c != '\t' && c != '\r') {
			d.pos = i
			return c
		}
	}
	d.pos = len(d.data)
	return 0
}

// expect consumes c, or bails.
func (d *Decoder) expect(c byte) bool {
	if d.peek() != c {
		d.bail()
		return false
	}
	d.pos++
	return true
}

// more is called after a member or element: it consumes the comma
// (true: another follows) or the closing bracket (false).
func (d *Decoder) more(closing byte) bool {
	switch d.peek() {
	case ',':
		d.pos++
		return true
	case closing:
		d.pos++
	default:
		d.bail()
	}
	return false
}

// list reads a bracketed, comma-separated list, calling item to read
// each member.
func (d *Decoder) list(opening, closing byte, item func()) {
	if !d.expect(opening) {
		return
	}
	if d.canon {
		d.checkedList(closing, item)
		return
	}
	if d.peek() == closing {
		d.pos++
		return
	}
	for item(); d.more(closing); item() {
	}
}

// checkedList is list past the opening bracket under the canonical
// check, which accepts what list does and holds the layout to
// AppendRecord's: [] for an empty list, else each item on a line of its
// own a level deeper, its comma straight after it, and the closing
// bracket on a line at the list's level. Once the check fails, the rest
// of the record reads as list reads it.
func (d *Decoder) checkedList(closing byte, item func()) {
	if d.pos < len(d.data) && d.data[d.pos] == closing {
		d.pos++
		return
	}
	d.level++
	if d.line(d.level); d.peek() == closing { // whitespace between the brackets
		d.canon = false
		d.pos++
	} else {
		for item(); ; item() {
			if d.pos < len(d.data) && d.data[d.pos] == ',' {
				d.pos++
				d.line(d.level)
			} else if d.line(d.level - 1); d.more(closing) {
				d.canon = false // whitespace ahead of the comma
			} else {
				break
			}
		}
	}
	d.level--
}

// line is the canonical check of a line break: a newline, two spaces a
// level and the next token must follow, and are skipped to it.
func (d *Decoder) line(level int) {
	n := 1 + 2*level
	if rest := d.data[d.pos:]; d.canon && n < len(rest) && n <= len(lineBreak) && string(rest[:n]) == lineBreak[:n] && rest[n] > ' ' {
		d.pos += n
	} else {
		d.canon = false
	}
}

// colon consumes the colon after a member name, which the canonical
// check wants straight after the name and followed by one space.
func (d *Decoder) colon() bool {
	if rest := d.data[d.pos:]; len(rest) > 2 && rest[0] == ':' && rest[1] == ' ' && rest[2] > ' ' {
		d.pos += 2
		return true
	}
	d.canon = false
	return d.expect(':')
}

// Array reads an array, calling elem to read each element.
func (d *Decoder) Array(elem func()) { d.list('[', ']', elem) }

// dict reads an object with free-form member names, calling member with
// each decoded name; member reads the value. A repeated name is met
// twice, and the later value wins as it does in encoding/json. The
// canonical check wants the names in strictly ascending order.
func (d *Decoder) dict(member func(key string)) {
	prev, first := "", true
	d.list('{', '}', func() {
		key := d.String()
		d.canon = d.canon && (first || key > prev)
		if prev, first = key, false; d.colon() {
			member(key)
		}
	})
}

// Object reads an object whose member names are among fields, calling
// member with the index of each name met; member reads the value. A name
// spelled any other way than in fields, or met twice, bails. It returns
// how many members it read; the canonical check wants them in the order
// of fields.
func (d *Decoder) Object(fields []string, member func(i int)) int {
	var seen uint32
	next := 0 // the encoder's order is the common case: try it first
	d.list('{', '}', func() {
		if !d.expect('"') {
			return
		}
		start := d.pos
		for d.pos < len(d.data) && d.data[d.pos] != '"' && d.data[d.pos] != '\\' {
			d.pos++
		}
		if d.pos == len(d.data) || d.data[d.pos] == '\\' {
			d.bail()
			return
		}
		name := d.data[start:d.pos]
		d.pos++
		i := next
		if i >= len(fields) || string(name) != fields[i] {
			for i = 0; i < len(fields) && string(name) != fields[i]; i++ {
			}
		}
		if i == len(fields) || seen&(1<<i) != 0 || !d.colon() {
			d.bail()
			return
		}
		d.canon = d.canon && i == next
		seen |= 1 << i
		next = i + 1
		member(i)
	})
	return bits.OnesCount32(seen)
}

// stringClass sorts the bytes of a string literal: below 3 the bytes a
// literal holds as they are — 0 ASCII, 1 past ASCII, 2 the < > & that
// AppendString escapes, so not canonical — then the closing quote (3),
// a backslash (4), and a control byte, which no literal holds raw (5).
var stringClass = func() (t [256]byte) {
	for c := range t {
		switch {
		case c < 0x20:
			t[c] = 5
		case c >= utf8.RuneSelf:
			t[c] = 1
		}
	}
	t['<'], t['>'], t['&'], t['"'], t['\\'] = 2, 2, 2, 3, 4
	return t
}()

// StringBytes reads a string literal and returns its decoded bytes,
// which alias the input or the scratch buffer and are good until the
// next read. The canonical check is folded into the one scan.
func (d *Decoder) StringBytes() []byte {
	if !d.expect('"') {
		return nil
	}
	start := d.pos
	ascii := true
	for i := start; i < len(d.data); i++ {
		k := stringClass[d.data[i]]
		if k == 0 {
			continue
		}
		switch k {
		case 1:
			ascii = false
		case 2:
			d.canon = false
		case 3:
			d.pos = i + 1
			if !ascii && !d.validUTF8(d.data[start:i], d.data[start:i]) {
				return nil
			}
			return d.data[start:i]
		case 4:
			return d.unescape(start, i)
		case 5:
			d.bail()
			return nil
		}
	}
	d.bail() // unterminated
	return nil
}

// validUTF8 bails unless s, a literal's decoded bytes, is UTF-8, and
// holds the canonical check to lit, the literal, holding neither U+2028
// nor U+2029 raw, which AppendString escapes.
func (d *Decoder) validUTF8(s, lit []byte) bool {
	if !utf8.Valid(s) {
		d.bail()
		return false
	}
	d.canon = d.canon && !bytes.Contains(lit, []byte("\u2028")) && !bytes.Contains(lit, []byte("\u2029"))
	return true
}

// unescape finishes StringBytes for a literal that began at start and
// has its first backslash at i. The scratch is grown once, to the
// literal's length — up to its first quote no backslash escapes — so a
// long text (a directive set is one literal of up to a few hundred KB)
// is not copied over and over as it grows.
func (d *Decoder) unescape(start, i int) []byte {
	end := i
	for {
		q := bytes.IndexByte(d.data[end:], '"')
		if q < 0 {
			end = len(d.data)
			break
		}
		end += q
		n := 0
		for k := end - 1; d.data[k] == '\\'; k-- { // stops at the opening quote
			n++
		}
		if n%2 == 0 {
			break
		}
		end++
	}
	buf := append(slices.Grow(d.buf[:0], end-start), d.data[start:i]...)
	for i+1 < len(d.data) { // at a backslash, with a byte after it
		i += 2
		switch c := d.data[i-1]; c {
		case '"', '\\':
			buf = append(buf, c)
		case '/':
			buf = append(buf, c)
			d.canon = false // AppendString leaves / as it is
		case 'b':
			buf = append(buf, '\b')
		case 'f':
			buf = append(buf, '\f')
		case 'n':
			buf = append(buf, '\n')
		case 'r':
			buf = append(buf, '\r')
		case 't':
			buf = append(buf, '\t')
		case 'u':
			if i+4 > len(d.data) {
				d.bail()
				return nil
			}
			r := hex4(d.data[i : i+4])
			if r < 0 || (0xD800 <= r && r <= 0xDFFF) { // a surrogate half: encoding/json pairs or replaces it
				d.bail()
				return nil
			}
			d.canon = d.canon && canonicalEscape(r, d.data[i:i+4])
			buf = utf8.AppendRune(buf, r)
			i += 4
		default:
			d.bail()
			return nil
		}
		// The plain run up to the next backslash or the closing quote.
		run := i
		for ; i < len(d.data) && stringClass[d.data[i]] < 3; i++ {
			if stringClass[d.data[i]] == 2 {
				d.canon = false
			}
		}
		buf = append(buf, d.data[run:i]...)
		if i < len(d.data) && d.data[i] == '"' {
			d.pos = i + 1
			d.buf = buf
			if !d.validUTF8(buf, d.data[start:i]) {
				return nil
			}
			return buf
		}
		if i < len(d.data) && d.data[i] != '\\' { // a raw control byte
			break
		}
	}
	d.bail() // unterminated, or not a string
	return nil
}

// canonicalEscape reports whether \u and hex, which read as r, are how
// AppendString writes r: in lower case, and only for a control byte with
// no name, < > &, U+2028 and U+2029.
func canonicalEscape(r rune, hex []byte) bool {
	switch r {
	case '\b', '\f', '\n', '\r', '\t':
		return false
	case '\u2028', '\u2029':
		return true
	}
	return (r < 0x20 || r == '<' || r == '>' || r == '&') && hex[2] == hexDigits[r>>4] && hex[3] == hexDigits[r&0xF]
}

// hex4 reads four hex digits; -1 when b is anything else.
func hex4(b []byte) (r rune) {
	for _, c := range b {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// String reads a string into memory of its own.
func (d *Decoder) String() string { return string(d.StringBytes()) }

// internable are the closed sets the consultant defines — states,
// priorities, hypothesis names — which most results spell, the ones a
// finished search is full of first.
var internable = [...]string{
	"false", "true", "medium", consultant.ExcessiveSync, consultant.CPUBound, consultant.ExcessiveIO,
	"pruned", "high", "low", "pending", "testing",
}

// interned reads a string that is usually one of internable, and then
// costs no allocation.
func (d *Decoder) interned() string {
	b := d.StringBytes()
	for _, s := range internable {
		if string(b) == s {
			return s
		}
	}
	return string(b)
}

// skip consumes c if it is the next byte.
func (d *Decoder) skip(c byte) bool {
	if d.pos < len(d.data) && d.data[d.pos] == c {
		d.pos++
		return true
	}
	return false
}

// digits consumes a run of decimal digits and reports whether there
// was one.
func (d *Decoder) digits() bool {
	start := d.pos
	for d.pos < len(d.data) && '0' <= d.data[d.pos] && d.data[d.pos] <= '9' {
		d.pos++
	}
	return d.pos > start
}

// number reads a literal of the JSON number grammar: an optional minus,
// a zero or digits not led by one, an optional fraction, an optional
// exponent.
func (d *Decoder) number() []byte {
	d.peek()
	start := d.pos
	d.skip('-')
	ok := d.skip('0') || d.digits()
	if ok && d.skip('.') {
		ok = d.digits()
	}
	if ok && (d.skip('e') || d.skip('E')) {
		_ = d.skip('+') || d.skip('-')
		ok = d.digits()
	}
	if !ok {
		d.bail()
		return nil
	}
	return d.data[start:d.pos]
}

// Float reads a number into a float64 field.
func (d *Decoder) Float() float64 {
	lit := d.number()
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil { // empty after a bail, or out of range
		d.bail()
	} else if d.canon && !plainShortest(lit, f) {
		d.spell = AppendFloat(d.spell[:0], f)
		d.canon = bytes.Equal(d.spell, lit)
	}
	return f
}

// plainShortest reports, by its shape alone, that a literal is
// AppendFloat's spelling of f, its value: 'f' notation where AppendFloat
// writes it, no trailing zero in a fraction, and at most 15 significant
// digits — so few that no other decimal of as many rounds to f, let
// alone a shorter one. false says only that it has to be formatted.
func plainShortest(lit []byte, f float64) bool {
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) ||
		bytes.IndexByte(lit, '.') >= 0 && lit[len(lit)-1] == '0' {
		return false
	}
	sig := 0
	for _, c := range lit {
		switch {
		case c == 'e' || c == 'E':
			return false
		case '1' <= c && c <= '9' || c == '0' && sig > 0:
			sig++
		}
	}
	return sig <= 15
}

// Int reads a number into an int field, which takes no fraction
// and no exponent.
func (d *Decoder) Int() int {
	lit := d.number()
	n, err := strconv.ParseInt(string(lit), 10, strconv.IntSize)
	if err != nil {
		d.bail()
	}
	d.canon = d.canon && string(lit) != "-0"
	return int(n)
}

// Bool reads true or false.
func (d *Decoder) Bool() bool {
	d.peek()
	rest := d.data[d.pos:]
	switch {
	case len(rest) >= 4 && string(rest[:4]) == "true":
		d.pos += 4
		return true
	case len(rest) >= 5 && string(rest[:5]) == "false":
		d.pos += 5
		return false
	}
	d.bail()
	return false
}

var resultFields = []string{"hyp", "focus", "state", "value", "threshold", "concluded_at", "priority", "persistent"}

// Result reads one result into nr, which must be zero. The canonical
// check wants every member, persistent only when true.
func (d *Decoder) Result(nr *NodeResult) {
	n := d.Object(resultFields, func(i int) {
		switch i {
		case 0:
			nr.Hyp = d.interned()
		case 1:
			nr.Focus = d.String()
		case 2:
			nr.State = d.interned()
		case 3:
			nr.Value = d.Float()
		case 4:
			nr.Threshold = d.Float()
		case 5:
			nr.ConcludedAt = d.Float()
		case 6:
			nr.Priority = d.interned()
		case 7:
			nr.Persistent = d.Bool()
		}
	})
	d.canon = d.canon && (n == len(resultFields)-1 || n == len(resultFields) && nr.Persistent)
}

var recordFields = []string{"app", "version", "run_id", "duration", "resources", "proc_nodes", "results", "usage", "pairs_tested", "true_count"}

// Record reads one record into r, which must be zero. A present but
// empty map or array decodes to an empty, non-nil one, as encoding/json
// has it. The canonical check wants every member.
func (d *Decoder) Record(r *RunRecord) {
	n := d.Object(recordFields, func(i int) {
		switch i {
		case 0:
			r.App = d.String()
		case 1:
			r.Version = d.String()
		case 2:
			r.RunID = d.String()
		case 3:
			r.Duration = d.Float()
		case 4:
			r.Resources = map[string][]string{}
			d.dict(func(hier string) {
				paths := []string{}
				d.Array(func() { paths = append(paths, d.String()) })
				r.Resources[hier] = paths
			})
		case 5:
			r.ProcNodes = map[string]string{}
			d.dict(func(proc string) { r.ProcNodes[proc] = d.String() })
		case 6:
			r.Results = []NodeResult{}
			d.Array(func() {
				r.Results = append(r.Results, NodeResult{})
				d.Result(&r.Results[len(r.Results)-1])
			})
		case 7:
			r.Usage = map[string]float64{}
			d.dict(func(path string) { r.Usage[path] = d.Float() })
		case 8:
			r.PairsTested = d.Int()
		case 9:
			r.TrueCount = d.Int()
		}
	})
	d.canon = d.canon && n == len(recordFields)
}

// ParseRecord decodes one record through the strict decoder. false
// means the decoder bailed and said nothing about data: run
// encoding/json over it.
func ParseRecord(data []byte) (*RunRecord, bool) {
	d := Decoder{data: data}
	r := &RunRecord{}
	d.Record(r)
	if !d.End() {
		return nil, false
	}
	return r, true
}
