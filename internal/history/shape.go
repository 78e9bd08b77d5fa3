package history

import (
	"math"
	"slices"
	"strconv"
	"unsafe"
)

// A Shape is the member table of a JSON object type T, declared beside
// T: the one description of a wire shape that Append writes and Decode
// reads by, and that a put body's canonical check follows. A member
// reaches its field by offset and its value is handled by one switch
// over a closed set of kinds, so no call through a function value is
// handed a pointer into the value or the Decoder: neither is moved to
// the heap, an append into a buffer with room allocates nothing, and a
// decode only the strings, slices and maps it fills in.
type Shape[T any] struct {
	t    table
	hint func(*T) int
}

type table struct {
	members []member
	keys    []string // each member's key, for Decoder.object
}

type member struct {
	name, key string // key is the name quoted, a colon and a space
	omit      bool   // omitempty
	kind      kind   // val's
	off       uintptr
	val       *value
}

type kind uint8

const (
	kindString kind = iota
	kindLabel       // a string that repeats: the Decoder copies each spelling once
	kindInt
	kindInt64
	kindFloat
	kindBool
	kindTable
	kindPointer // to a table, null when nil
	kindArray
	kindMap // string keys, written in key order
)

type value struct {
	kind    kind
	table   *table // kindTable, kindPointer
	elem    *value // kindArray, kindMap
	size    uintptr
	perElem int // kindArray: decoding reserves an element for every perElem bytes of the body, in no other array
	// kindPointer's new(T); kindArray's make([]E, 0, n), and s with room
	// for one more zero element.
	alloc func() unsafe.Pointer
	make  func(n int) sliceHeader
	grow  func(s sliceHeader) sliceHeader
}

type sliceHeader struct {
	data     unsafe.Pointer
	len, cap int
}

// Value describes a value of type F, so a member's field and value
// cannot disagree.
type Value[F any] struct{ v *value }

var (
	String = Value[string]{&value{kind: kindString}}
	Label  = Value[string]{&value{kind: kindLabel}}
	Int    = Value[int]{&value{kind: kindInt}}
	Int64  = Value[int64]{&value{kind: kindInt64}}
	Float  = Value[float64]{&value{kind: kindFloat}}
	Bool   = Value[bool]{&value{kind: kindBool}}
)

// ArrayOf is an array of elem, null when nil.
func ArrayOf[E any](elem Value[E]) Value[[]E] { return PresizedArrayOf(elem, 0) }

// PresizedArrayOf is ArrayOf for an array that is most of its body:
// decoding reserves an element for every perElem bytes of the body up
// front, so that a real batch is appended to without growing; inside
// another array's element, whose body it is not, it grows as ArrayOf's.
func PresizedArrayOf[E any](elem Value[E], perElem int) Value[[]E] {
	var zero E
	return Value[[]E]{&value{kind: kindArray, elem: elem.v, size: unsafe.Sizeof(zero), perElem: perElem,
		make: func(n int) sliceHeader {
			s := make([]E, 0, n)
			return *(*sliceHeader)(unsafe.Pointer(&s))
		},
		grow: func(h sliceHeader) sliceHeader {
			s := *(*[]E)(unsafe.Pointer(&h))
			s = append(s, zero)[:len(s)]
			return *(*sliceHeader)(unsafe.Pointer(&s))
		},
	}}
}

// MapElem are the value types of a map: each is copied in and out of
// its map by code of its own, which keeps the copy off the heap.
type MapElem interface{ string | float64 | []string }

// MapOf is an object with string keys of elem, null when nil.
func MapOf[E MapElem](elem Value[E]) Value[map[string]E] {
	return Value[map[string]E]{&value{kind: kindMap, elem: elem.v}}
}

// Value is an object of s; Pointer is a pointer to one, null when nil.
func (s *Shape[T]) Value() Value[T] { return Value[T]{&value{kind: kindTable, table: &s.t}} }

func (s *Shape[T]) Pointer() Value[*T] {
	return Value[*T]{&value{kind: kindPointer, table: &s.t, alloc: func() unsafe.Pointer { return unsafe.Pointer(new(T)) }}}
}

// Member is a member of a Shape of T.
type Member[T any] struct{ m member }

// Field is the member name, whose value v is the field of T get returns.
func Field[T, F any](name string, get func(*T) *F, v Value[F]) Member[T] {
	var t T
	off := uintptr(unsafe.Pointer(get(&t))) - uintptr(unsafe.Pointer(&t))
	if off > unsafe.Sizeof(t)-unsafe.Sizeof(*get(&t)) {
		panic("history: member " + name + " is not a field of its shape's type")
	}
	return Member[T]{member{name: name, key: `"` + name + `": `, kind: v.v.kind, off: off, val: v.v}}
}

// OmitEmpty is Field for a member tagged omitempty, of a scalar type.
func OmitEmpty[T, F any](name string, get func(*T) *F, v Value[F]) Member[T] {
	m := Field(name, get, v)
	if m.m.omit = true; m.m.kind > kindBool {
		panic("history: omitempty member " + name + " is not a scalar")
	}
	return m
}

// NewShape is the table of members, in the order they are written.
func NewShape[T any](members ...Member[T]) *Shape[T] {
	s := &Shape[T]{}
	for _, m := range members {
		s.t.members = append(s.t.members, m.m)
		s.t.keys = append(s.t.keys, m.m.key)
	}
	if len(members) > 32 { // Decoder.object's bitmask
		panic("history: a shape of more than 32 members")
	}
	return s
}

// SizedBy sets the estimate of an encoding's length that Marshal sizes
// its buffer by, and returns s.
func (s *Shape[T]) SizedBy(hint func(*T) int) *Shape[T] {
	s.hint = hint
	return s
}

// Append appends v as encoding/json writes it: json.Marshal's compact
// form at a negative depth, else json.MarshalIndent(v, "", "  ")'s with
// the opening brace at the given nesting depth; no trailing newline. It
// returns dst as it was, and false, for a float JSON cannot spell: that
// error is encoding/json's to give.
func (s *Shape[T]) Append(dst []byte, v *T, depth int) ([]byte, bool) {
	if depth < 0 {
		depth = compact
	}
	if out, ok := s.t.append(dst, unsafe.Pointer(v), depth); ok {
		return out, true
	}
	return dst, false
}

// Marshal is Append into a buffer of its own, sized by the hint.
func (s *Shape[T]) Marshal(v *T, depth int) ([]byte, bool) {
	n := 256
	if s.hint != nil {
		n = s.hint(v)
	}
	return s.Append(make([]byte, 0, n), v, depth)
}

// Decode reads an object into v, which must be zero; it means something
// only if d does not bail (End).
func (s *Shape[T]) Decode(d *Decoder, v *T) { s.t.decode(d, unsafe.Pointer(v)) }

// Parse decodes all of data into *out. false means the decoder bailed,
// left *out alone and said nothing about data: run encoding/json over it.
func (s *Shape[T]) Parse(data []byte, out *T) bool {
	d := Decoder{data: data}
	var v T
	if s.Decode(&d, &v); !d.End() {
		return false
	}
	*out = v
	return true
}

// compact is the depth of json.Marshal's form: negative, however deep
// the nesting goes.
const compact = math.MinInt16

func (t *table) append(dst []byte, p unsafe.Pointer, depth int) ([]byte, bool) {
	dst = append(dst, '{')
	empty := true
	for i := range t.members {
		m := &t.members[i]
		f := unsafe.Add(p, m.off)
		if m.omit && zero(m.kind, f) {
			continue
		}
		if !empty {
			dst = append(dst, ',')
		}
		if empty = false; depth >= 0 {
			dst = append(appendIndent(dst, depth+1), m.key...)
		} else {
			dst = append(dst, m.key[:len(m.key)-1]...)
		}
		var ok bool
		if m.kind <= kindLabel { // the common case, without the call
			dst = appendString(dst, *(*string)(f))
		} else if dst, ok = m.val.append(dst, f, depth+1); !ok {
			return dst, false
		}
	}
	if !empty {
		dst = appendIndent(dst, depth)
	}
	return append(dst, '}'), true
}

// append appends the value at p, its opening bracket at depth.
func (v *value) append(dst []byte, p unsafe.Pointer, depth int) ([]byte, bool) {
	switch v.kind {
	case kindString, kindLabel:
		return appendString(dst, *(*string)(p)), true
	case kindInt:
		return strconv.AppendInt(dst, int64(*(*int)(p)), 10), true
	case kindInt64:
		return strconv.AppendInt(dst, *(*int64)(p), 10), true
	case kindFloat:
		f := *(*float64)(p)
		return appendFloat(dst, f), !math.IsInf(f, 0) && !math.IsNaN(f)
	case kindBool:
		return strconv.AppendBool(dst, *(*bool)(p)), true
	case kindTable:
		return v.table.append(dst, p, depth)
	case kindPointer:
		if q := *(*unsafe.Pointer)(p); q != nil {
			return v.table.append(dst, q, depth)
		}
	case kindArray:
		s := (*sliceHeader)(p)
		if s.data == nil {
			break
		} else if s.len == 0 {
			return append(dst, '[', ']'), true
		}
		ok := true
		dst = append(dst, '[')
		for i := 0; i < s.len && ok; i++ {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst, ok = v.elem.append(appendIndent(dst, depth+1), unsafe.Add(s.data, uintptr(i)*v.size), depth+1)
		}
		return append(appendIndent(dst, depth), ']'), ok
	case kindMap:
		switch v.elem.kind {
		case kindString, kindLabel:
			return appendMap(dst, *(*map[string]string)(p), v.elem, depth)
		case kindFloat:
			return appendMap(dst, *(*map[string]float64)(p), v.elem, depth)
		default:
			return appendMap(dst, *(*map[string][]string)(p), v.elem, depth)
		}
	}
	return append(dst, "null"...), true
}

// appendMap appends m with its members in key order.
func appendMap[E MapElem](dst []byte, m map[string]E, elem *value, depth int) ([]byte, bool) {
	if m == nil {
		return append(dst, "null"...), true
	} else if len(m) == 0 {
		return append(dst, '{', '}'), true
	}
	var few [64]string // more keys than any record the tools build has; a larger map spills to the heap
	keys := few[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	ok := true
	dst = append(dst, '{')
	for i := 0; i < len(keys) && ok; i++ {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(appendString(appendIndent(dst, depth+1), keys[i]), ':')
		if depth >= 0 {
			dst = append(dst, ' ')
		}
		e := m[keys[i]]
		dst, ok = elem.append(dst, unsafe.Pointer(&e), depth+1)
	}
	return append(appendIndent(dst, depth), '}'), ok
}

// zero reports whether the scalar at p is what omitempty leaves out.
func zero(k kind, p unsafe.Pointer) bool {
	switch k {
	case kindString, kindLabel:
		return *(*string)(p) == ""
	case kindInt:
		return *(*int)(p) == 0
	case kindInt64:
		return *(*int64)(p) == 0
	case kindFloat:
		return *(*float64)(p) == 0
	}
	return !*(*bool)(p)
}

// decode reads an object of t's members into the zero value at p. The
// canonical check wants the members in table order, each present but an
// omitempty one, which is present exactly when it is not zero.
func (t *table) decode(d *Decoder, p unsafe.Pointer) {
	next := 0
	d.object(t.keys, func(i int) {
		for ; d.canon && next < i; next++ {
			d.canon = t.members[next].omit
		}
		d.canon = d.canon && next == i
		next = i + 1
		m := &t.members[i]
		m.val.decode(d, unsafe.Add(p, m.off))
		d.canon = d.canon && !(m.omit && zero(m.kind, unsafe.Add(p, m.off)))
	})
	for ; d.canon && next < len(t.members); next++ {
		d.canon = t.members[next].omit
	}
}

// decode reads a value into the zero value at p. A present but empty
// map or array decodes to an empty, non-nil one, as encoding/json has it.
func (v *value) decode(d *Decoder, p unsafe.Pointer) {
	switch v.kind {
	case kindString:
		*(*string)(p) = d.str()
	case kindLabel:
		*(*string)(p) = d.label()
	case kindInt:
		*(*int)(p) = int(d.integer(strconv.IntSize))
	case kindInt64:
		*(*int64)(p) = d.integer(64)
	case kindFloat:
		*(*float64)(p) = d.float()
	case kindBool:
		*(*bool)(p) = d.boolean()
	case kindTable:
		v.table.decode(d, p)
	case kindPointer:
		q := v.alloc()
		v.table.decode(d, q)
		*(*unsafe.Pointer)(p) = q
	case kindArray:
		n := 0
		if v.perElem > 0 && d.arrays == 0 {
			n = len(d.data) / v.perElem
		}
		s := v.make(n)
		d.array(func() {
			if s.len == s.cap {
				s = v.grow(s)
			}
			s.len++
			v.elem.decode(d, unsafe.Add(s.data, uintptr(s.len-1)*v.size))
		})
		*(*sliceHeader)(p) = s
	case kindMap:
		switch v.elem.kind {
		case kindString, kindLabel:
			*(*map[string]string)(p) = decodeMap[string](d, v.elem)
		case kindFloat:
			*(*map[string]float64)(p) = decodeMap[float64](d, v.elem)
		default:
			*(*map[string][]string)(p) = decodeMap[[]string](d, v.elem)
		}
	}
}

func decodeMap[E MapElem](d *Decoder, elem *value) map[string]E {
	m := map[string]E{}
	d.dict(func(key string) {
		var e E
		elem.decode(d, unsafe.Pointer(&e))
		m[key] = e
	})
	return m
}
