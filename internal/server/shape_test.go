package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"repro/internal/history"
	"repro/internal/ingest"
)

// The eleven wire shapes with a member table, as values.
var wireShapeValues = []any{
	history.NodeResult{}, history.RunRecord{}, QueryHit{}, QueryResponse{}, PutRunsRequest{},
	HarvestResponse{}, DiagnoseRequest{}, DiagnoseBottleneck{}, DiagnoseResponse{},
	ingest.Sample{}, ingest.SamplesRequest{},
}

// TestShapesMatchStructTags: each member table lists its struct's
// exported fields in order, by their json tags' names and omitempty.
// With every field set the table must write each field encoding/json
// writes, in its order and name — a field added to a struct and not to
// its table, which the fast path drops, fails here — and with none set,
// leave out exactly the omitempty ones.
func TestShapesMatchStructTags(t *testing.T) {
	for _, v := range wireShapeValues {
		full := reflect.New(reflect.TypeOf(v))
		setAll(full.Elem())
		for _, v := range []any{full.Interface(), reflect.New(reflect.TypeOf(v)).Interface()} {
			s := shapeOf(v)
			if s == nil {
				t.Fatalf("%T has no member table", v)
			}
			got, ok := s.marshal(v, -1)
			if want, err := json.Marshal(v); !ok || err != nil || !bytes.Equal(got, want) {
				t.Errorf("%T: the member table writes\n%s\nthe struct's fields and tags\n%s", v, got, want)
			}
		}
	}
}

// setAll sets every exported field below v to something not zero.
func setAll(v reflect.Value) {
	switch v.Kind() {
	case reflect.String:
		v.SetString("s")
	case reflect.Float64, reflect.Int, reflect.Int64:
		v.Set(reflect.ValueOf(1).Convert(v.Type()))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				setAll(v.Field(i))
			}
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		setAll(v.Elem())
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		setAll(v.Index(0))
	case reflect.Map:
		e := reflect.New(v.Type().Elem()).Elem()
		setAll(e)
		v.Set(reflect.MakeMap(v.Type()))
		v.SetMapIndex(reflect.ValueOf("k"), e)
	}
}

// shapeFill builds a value of a wire shape out of fuzz input: every
// choice and every scalar reads the next bytes, and once they run out
// everything is zero, empty or nil.
type shapeFill struct{ data []byte }

func (f *shapeFill) next() byte {
	if len(f.data) == 0 {
		return 0
	}
	b := f.data[0]
	f.data = f.data[1:]
	return b
}

func (f *shapeFill) bits() uint64 {
	var b [8]byte
	f.data = f.data[copy(b[:], f.data):]
	return binary.LittleEndian.Uint64(b[:])
}

// shapeFloats are where the float rule changes its mind, and what JSON
// cannot spell.
var shapeFloats = []float64{0, math.Copysign(0, -1), 1e-7, 1e-6, 9.999999e-7, 1e20, 1e21, 5e-324, 2.2250738585072014e-308, math.MaxFloat64, 0.1, math.NaN(), math.Inf(1), math.Inf(-1)}

// fill draws v: a string as raw input bytes (invalid UTF-8 and control
// bytes among them) or one of the escape classes, a float as one of the
// rule's edges or any bit pattern, a slice or map nil, empty or of one
// to three elements, a pointer nil or to a drawn struct.
func (f *shapeFill) fill(v reflect.Value) {
	switch v.Kind() {
	case reflect.String:
		if b := f.next(); b >= 128 {
			v.SetString(wireStrings[int(b)%len(wireStrings)])
		} else {
			n := min(int(b%8), len(f.data))
			v.SetString(string(f.data[:n]))
			f.data = f.data[n:]
		}
	case reflect.Float64:
		if b := f.next(); b%2 == 0 {
			v.SetFloat(shapeFloats[int(b/2)%len(shapeFloats)])
		} else {
			v.SetFloat(math.Float64frombits(f.bits()))
		}
	case reflect.Int, reflect.Int64:
		if f.next()%2 == 1 {
			v.SetInt(int64(f.bits()))
		}
	case reflect.Bool:
		v.SetBool(f.next()%2 == 1)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				f.fill(v.Field(i))
			}
		}
	case reflect.Pointer:
		if f.next()%3 != 0 {
			v.Set(reflect.New(v.Type().Elem()))
			f.fill(v.Elem())
		}
	case reflect.Slice:
		switch b := f.next() % 5; b {
		case 0:
		case 1:
			v.Set(reflect.MakeSlice(v.Type(), 0, 0))
		default:
			v.Set(reflect.MakeSlice(v.Type(), int(b-1), int(b-1)))
			for i := 0; i < v.Len(); i++ {
				f.fill(v.Index(i))
			}
		}
	case reflect.Map:
		switch b := f.next() % 5; b {
		case 0:
		case 1:
			v.Set(reflect.MakeMap(v.Type()))
		default:
			v.Set(reflect.MakeMap(v.Type()))
			for i := byte(1); i < b; i++ {
				k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
				f.fill(k)
				f.fill(e)
				v.SetMapIndex(k, e)
			}
		}
	}
}

// FuzzShapesAppendMatchEncodingJSON builds a value of each of the eleven
// shapes out of the input and holds its member table to encoding/json:
// indented and compact, the table writes json.MarshalIndent's or
// json.Marshal's bytes, or both refuse the value; and what the strict
// decoder reads back of either, it reads as json.Unmarshal does.
func FuzzShapesAppendMatchEncodingJSON(f *testing.F) {
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{1}, 64))
	f.Add(bytes.Repeat([]byte{2, 3, 5, 7, 11, 128, 200, 255}, 40))
	f.Add([]byte("\x03a\xe2\x80\xa8<&>\x00\x09\x04\x1e\x80\x81\x82\x83\x84\x85\x86\x87"))
	f.Add([]byte("\x02\x00\x00\x00\x00\x00\x00\xf0\x7f\x04\x01\x02\x03\x0a"))
	f.Fuzz(func(t *testing.T, data []byte) {
		fill := &shapeFill{data: data}
		for _, zero := range wireShapeValues {
			p := reflect.New(reflect.TypeOf(zero))
			fill.fill(p.Elem())
			v := p.Interface()
			for _, form := range []struct {
				depth int
				std   func(any) ([]byte, error)
			}{
				{0, func(v any) ([]byte, error) {
					data, err := json.MarshalIndent(v, "", "  ")
					return append(data, '\n'), err
				}},
				{-1, json.Marshal},
			} {
				want, werr := form.std(v)
				got, ok := shapeOf(v).marshal(v, form.depth)
				if form.depth == 0 && ok {
					got = append(got, '\n')
				}
				if ok != (werr == nil) || ok && !bytes.Equal(got, want) {
					t.Fatalf("%T at depth %d: the table wrote %q (ok %v), encoding/json %q (%v)", v, form.depth, got, ok, want, werr)
				}
				if !ok {
					continue
				}
				back := reflect.New(p.Type().Elem()).Interface()
				if !unmarshalStrict(want, back) {
					continue
				}
				std := reflect.New(p.Type().Elem()).Interface()
				if err := json.Unmarshal(want, std); err != nil {
					t.Fatalf("%T: the strict decoder read %q, which encoding/json refuses: %v", v, want, err)
				}
				a, _ := json.Marshal(back) // tells -0 from 0, which DeepEqual does not
				b, _ := json.Marshal(std)
				if !reflect.DeepEqual(back, std) || !bytes.Equal(a, b) {
					t.Fatalf("%T: strict decode of %q differs from json.Unmarshal:\ngot  %s\nwant %s", v, want, a, b)
				}
			}
		}
	})
}
