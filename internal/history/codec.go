package history

import (
	"bytes"
	"math"
	"slices"
	"strconv"
	"unicode/utf8"

	"repro/internal/consultant"
)

// The direct JSON codec of the wire shapes: a record's file, journal
// and response bytes, a query response, a put batch, a directive text's
// harvest response and diagnose request, a trace line and a sample batch
// are written, and read back, by code that knows their shape instead of
// by reflection. Each shape is one member table (shape.go), declared
// beside its struct — Result and Record here (record.go), QueryHit,
// QueryResponse, PutRunsRequest, HarvestResponse and DiagnoseRequest in
// internal/server, Sample in internal/postmortem, SamplesRequest in
// internal/ingest — and this file holds what the tables are written and
// read with: the string and float spellings, and the Decoder.
//
// The encoder spells out FORMATS.md "Canonical encoding" — what
// json.MarshalIndent(v, "", "  ") (or json.Marshal) has always produced
// for these types, byte for byte, now independent of the toolchain's
// encoding/json. The decoder is strict: it reads exactly the documents
// whose meaning needs no interpretation, and bails on everything else —
// the caller then runs encoding/json over the same bytes, so any input
// yields encoding/json's value or encoding/json's error. The tests in
// codec_test.go, and beside each table, hold both halves to the
// standard library.

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

// appendString appends s as a JSON string literal: `"` and `\` behind a
// backslash, \b \f \n \r \t by name, every other control byte and
// < > & as \u00XX, U+2028 and U+2029 as \u2028 and \u2029, a byte that
// is not valid UTF-8 as \ufffd, everything else as itself.
func appendString(dst []byte, s string) []byte {
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

// appendFloat appends a finite f the way encoding/json spells a
// float64: the shortest decimal that round-trips, in plain notation,
// or in exponent notation below 1e-6 and from 1e21 with a two-digit
// exponent's leading zero dropped (e-09 becomes e-9).
func appendFloat(dst []byte, f float64) []byte {
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

// appendIndent starts a line at the given nesting depth, a negative
// one for json.Marshal's form, which has no line breaks.
func appendIndent(dst []byte, depth int) []byte {
	if n := 1 + 2*depth; n > 0 && n <= len(lineBreak) {
		return append(dst, lineBreak[:n]...)
	} else if depth < 0 {
		return dst
	}
	dst = append(dst, '\n')
	for ; depth > 0; depth-- {
		dst = append(dst, ' ', ' ')
	}
	return dst
}

// EncodedSizeHint estimates the length of r's canonical encoding, for
// sizing the buffer RecordShape appends to: the long strings' own
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
	data, _ := RecordShape.Marshal(r, 0)
	return data
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
// strings copied out of the input. A Shape says what it reads.
type Decoder struct {
	data []byte
	pos  int
	bad  bool
	buf  []byte // unescape scratch

	// canon is the canonical check (see encoded): it stays true while
	// what was read since it was set is the Shape's own spelling, at the
	// nesting depth level; spell is the scratch a float is re-spelled in.
	canon  bool
	level  int
	spell  []byte
	arrays int // open around what is being read

	// labels holds every label read so far that is not one of
	// internable, each once.
	labels map[string]string

	// general turns the fast paths off — the whole key of an object's
	// next member, an ASCII literal's HTML escapes, a short float's one
	// scan — so that the differential tests can hold them to the general
	// path. No caller outside the tests sets it.
	general bool
}

// Reset makes d read data, keeping the labels it has read: the lines of
// one trace share them. A zero Decoder reads nothing until Reset.
func (d *Decoder) Reset(data []byte) {
	*d = Decoder{data: data, buf: d.buf, spell: d.spell, labels: d.labels, general: d.general}
}

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
// each member, at the nesting depth level one deeper. It reads a Shape's
// layout first — [] for an empty list, else each item on a line of its
// own a level deeper, its comma straight after it, and the closing
// bracket on a line at the list's level — skipping each line break in
// one compare, and falls back to any whitespace. The canonical check
// holds to that layout: once it fails, the rest of the record reads as
// any other input does.
func (d *Decoder) list(opening, closing byte, item func()) {
	if !d.expect(opening) {
		return
	}
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

// line skips a line break of the layout — a newline, two spaces a level
// — when the next token follows it; anything else fails the canonical
// check and is left for the reader to skip as whitespace.
func (d *Decoder) line(level int) {
	n := 1 + 2*level
	if rest := d.data[d.pos:]; n < len(rest) && rest[0] == '\n' && n <= len(lineBreak) && string(rest[:n]) == lineBreak[:n] && rest[n] > ' ' {
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

// array reads an array, calling elem to read each element.
func (d *Decoder) array(elem func()) {
	d.arrays++
	d.list('[', ']', elem)
	d.arrays--
}

// dict reads an object with free-form member names, calling member with
// each decoded name; member reads the value. A repeated name is met
// twice, and the later value wins as it does in encoding/json. The
// canonical check wants the names in strictly ascending order.
func (d *Decoder) dict(member func(key string)) {
	prev, first := "", true
	d.list('{', '}', func() {
		key := d.str()
		d.canon = d.canon && (first || key > prev)
		if prev, first = key, false; d.colon() {
			member(key)
		}
	})
}

// object reads an object whose member names are among those of keys —
// each a member's name quoted, a colon and a space, as a Shape writes
// it — calling member with the index of each name met; member reads the
// value. A name spelled any other way, or met twice, bails. The member
// after the last one met is the common case and is tried first, whole
// (wholeKey); any other spelling takes the scan of a name.
func (d *Decoder) object(keys []string, member func(i int)) {
	var seen uint32
	next := 0
	d.list('{', '}', func() {
		i := next
		if i >= len(keys) || d.general || !d.wholeKey(keys[i]) {
			i = d.scanKey(keys, i)
		}
		if i < 0 || seen&(1<<i) != 0 {
			d.bail()
			return
		}
		seen |= 1 << i
		next = i + 1
		member(i)
	})
}

// scanKey reads a member's name and the colon after it, and returns the
// name's index in keys, trying next first; -1 for a name that is not
// there or is escaped.
func (d *Decoder) scanKey(keys []string, next int) int {
	if !d.expect('"') {
		return -1
	}
	start := d.pos
	for d.pos < len(d.data) && d.data[d.pos] != '"' && d.data[d.pos] != '\\' {
		d.pos++
	}
	if d.pos == len(d.data) || d.data[d.pos] == '\\' {
		return -1
	}
	name := d.data[start:d.pos]
	d.pos++
	i := next
	if i >= len(keys) || string(name) != keyName(keys[i]) {
		for i = 0; i < len(keys) && string(name) != keyName(keys[i]); i++ {
		}
	}
	if i == len(keys) || !d.colon() {
		return -1
	}
	return i
}

// keyName is the name a key spells: `"name": ` less its quotes, colon
// and space.
func keyName(key string) string { return key[1 : len(key)-3] }

// wholeKey consumes key up to its colon, and reports whether it was
// next: the name and colon the scan of a name would have read there, and
// the same canonical verdict — the Shape's one space, then the value.
// false leaves d as it was.
func (d *Decoder) wholeKey(key string) bool {
	rest := d.data[d.pos:]
	n := len(key) - 1 // through the colon
	if len(rest) <= len(key) || string(rest[:n]) != key[:n] {
		return false
	}
	d.canon = d.canon && rest[n] == ' ' && rest[n+1] > ' '
	d.pos += n
	return true
}

// stringClass sorts the bytes of a string literal: below 3 the bytes a
// literal holds as they are — 0 ASCII, 1 past ASCII, 2 the < > & that
// appendString escapes, so not canonical — then the closing quote (3),
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

// stringBytes reads a string literal and returns its decoded bytes,
// which alias the input or the scratch buffer and are good until the
// next read. The canonical check is folded into the one scan.
func (d *Decoder) stringBytes() []byte {
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
			if ascii && !d.general {
				return d.escapedASCII(start, i)
			}
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
// nor U+2029 raw, which appendString escapes.
func (d *Decoder) validUTF8(s, lit []byte) bool {
	if !utf8.Valid(s) {
		d.bail()
		return false
	}
	d.canon = d.canon && !bytes.Contains(lit, []byte("\u2028")) && !bytes.Contains(lit, []byte("\u2029"))
	return true
}

// unescape finishes stringBytes for a literal that began at start and
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
			d.canon = false // appendString leaves / as it is
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

// escapedASCII finishes stringBytes for an ASCII literal that began at
// start and has its first backslash at i, when the literal's escapes are
// all appendString's \u003c, \u003e and \u0026 and the rest is ASCII
// appendString leaves as it is: the escapes every focus is written with,
// copied without unescape's general path. Any other literal goes to
// unescape from its first backslash. Both give the same value and the
// same canonical verdict: these escapes and bytes leave it as it was.
func (d *Decoder) escapedASCII(start, i int) []byte {
	first := i
	buf := append(d.buf[:0], d.data[start:i]...)
	for i+6 <= len(d.data) && string(d.data[i:i+4]) == `\u00` { // at a backslash
		switch string(d.data[i+4 : i+6]) {
		case "3c":
			buf = append(buf, '<')
		case "3e":
			buf = append(buf, '>')
		case "26":
			buf = append(buf, '&')
		default:
			return d.unescape(start, first)
		}
		i += 6
		run := i
		for i < len(d.data) && stringClass[d.data[i]] == 0 {
			i++
		}
		buf = append(buf, d.data[run:i]...)
		if i < len(d.data) && d.data[i] == '"' {
			d.pos = i + 1
			d.buf = buf
			return buf
		}
	}
	return d.unescape(start, first)
}

// canonicalEscape reports whether \u and hex, which read as r, are how
// appendString writes r: in lower case, and only for a control byte with
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

// str reads a string into memory of its own.
func (d *Decoder) str() string { return string(d.stringBytes()) }

// internable are the closed sets the consultant defines — states,
// priorities, hypothesis names — which most results spell, the ones a
// finished search is full of first.
var internable = [...]string{
	"false", "true", "medium", consultant.ExcessiveSync, consultant.CPUBound, consultant.ExcessiveIO,
	"pruned", "high", "low", "pending", "testing",
}

// label reads a string that is probably not the first of its spelling:
// one of internable, or one read before, then costs no allocation.
func (d *Decoder) label() string {
	b := d.stringBytes()
	if len(b) == 0 {
		return ""
	}
	if s, ok := d.labels[string(b)]; ok {
		return s
	}
	for _, s := range internable {
		if string(b) == s {
			return s
		}
	}
	if d.labels == nil {
		d.labels = make(map[string]string, 32)
	}
	s := string(b)
	d.labels[s] = s
	return s
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

// float reads a number into a float64 field. A literal with no exponent
// whose digits, read as an integer m, stay below 2^53 and of which k
// <= 22 follow the point — nearly every value a record holds — is read
// in this one scan: m / 10^k is one correctly rounded division of two
// exactly represented floats (Clinger's fast path, strconv's own for
// such literals), so the value is the one ParseFloat returns, and the
// scan's count of significant digits is plainShape's. Any other literal
// is ParseFloat's.
func (d *Decoder) float() float64 {
	if d.general {
		return d.parseFloat(d.number())
	}
	d.peek()
	start := d.pos
	neg := d.skip('-')
	var m uint64 // stops growing past 2^60, far beyond the fast path, before it could wrap
	sig := 0     // significant digits: from the first that is not 0
	if !d.skip('0') {
		for ; d.pos < len(d.data) && '0' <= d.data[d.pos] && d.data[d.pos] <= '9'; d.pos++ {
			if m < 1<<60 {
				m = m*10 + uint64(d.data[d.pos]-'0')
			}
			sig++
		}
		if sig == 0 {
			d.bail()
			return 0
		}
	}
	k := 0
	if d.skip('.') {
		for ; d.pos < len(d.data) && '0' <= d.data[d.pos] && d.data[d.pos] <= '9'; d.pos++ {
			c := d.data[d.pos] - '0'
			if m < 1<<60 {
				m = m*10 + uint64(c)
			}
			if c != 0 || sig > 0 {
				sig++
			}
			k++
		}
		if k == 0 {
			d.bail()
			return 0
		}
	}
	if d.pos < len(d.data) && d.data[d.pos]|0x20 == 'e' {
		d.pos++
		_ = d.skip('+') || d.skip('-')
		if !d.digits() {
			d.bail()
			return 0
		}
		return d.parseFloat(d.data[start:d.pos])
	}
	if m >= 1<<53 || k > 22 {
		return d.parseFloat(d.data[start:d.pos])
	}
	f := float64(m) / pow10[k]
	if neg {
		f = -f
	}
	if lit := d.data[start:d.pos]; d.canon && !plainShape(sig, k > 0 && lit[len(lit)-1] == '0', f) {
		d.respell(lit, f)
	}
	return f
}

// pow10 are the powers of ten a float64 holds exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// parseFloat converts a number literal float's scan read but leaves to
// strconv: one with an exponent or more digits than plainShape vouches
// for, so the canonical check formats it.
func (d *Decoder) parseFloat(lit []byte) float64 {
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil { // empty after a bail, or out of range
		d.bail()
	} else if d.canon {
		d.respell(lit, f)
	}
	return f
}

// respell holds the canonical check to lit being appendFloat's spelling
// of f.
func (d *Decoder) respell(lit []byte, f float64) {
	d.spell = appendFloat(d.spell[:0], f)
	d.canon = bytes.Equal(d.spell, lit)
}

// plainShape reports, by the shape of a literal with no exponent alone,
// that it is appendFloat's spelling of f, its value: at most 15
// significant digits (sig) — so few that no other decimal of as many
// rounds to f, let alone a shorter one —, no trailing zero in a fraction
// (zeroEnd), and 'f' notation where appendFloat writes it. false says
// only that it has to be formatted.
func plainShape(sig int, zeroEnd bool, f float64) bool {
	abs := math.Abs(f)
	return sig <= 15 && !zeroEnd && (abs == 0 || abs >= 1e-6 && abs < 1e21)
}

// integer reads a number into an integer field of the given bit size,
// which takes no fraction and no exponent.
func (d *Decoder) integer(bitSize int) int64 {
	lit := d.number()
	n, err := strconv.ParseInt(string(lit), 10, bitSize)
	if err != nil {
		d.bail()
	}
	d.canon = d.canon && string(lit) != "-0"
	return n
}

// boolean reads true or false.
func (d *Decoder) boolean() bool {
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

// ParseRecord decodes one record through the strict decoder. false
// means the decoder bailed and said nothing about data: run
// encoding/json over it.
func ParseRecord(data []byte) (*RunRecord, bool) {
	r := &RunRecord{}
	if !RecordShape.Parse(data, r) {
		return nil, false
	}
	return r, true
}
