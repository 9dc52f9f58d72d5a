package schema

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// fuzzRow turns fuzz input into a table of 1–12 Int64 and String columns and one
// full row of it, strings 0–300 bytes long so that their lengths cross the
// one-byte uvarint boundary at 128. Missing input reads as zero bytes.
func fuzzRow(data []byte) (*Table, Row) {
	next := func(n int) []byte {
		out := make([]byte, n)
		data = data[copy(out, data):]
		return out
	}
	tb := &Table{Name: "fuzz", PrimaryKey: "c0"}
	var r Row
	for c := range 1 + int(next(1)[0])%12 {
		typ := ColumnType(next(1)[0] % 2)
		tb.Columns = append(tb.Columns, Column{Name: fmt.Sprintf("c%d", c), Type: typ})
		if typ == Int64 {
			r = append(r, int64(binary.LittleEndian.Uint64(next(8))))
		} else {
			n := int(binary.LittleEndian.Uint16(next(2))) % 301
			r = append(r, string(next(n)))
		}
	}
	return tb, r
}

// sameRow reports whether got deep-equals want, a row with no columns being
// nil.
func sameRow(got, want Row) bool {
	return len(got) == 0 && len(want) == 0 || reflect.DeepEqual(got, want)
}

// write writes r through w as a generator would, with the typed writes.
func write(w *RowWriter, r Row) {
	w.Reset()
	for _, v := range r {
		switch x := v.(type) {
		case int64:
			w.Int(x)
		case string:
			w.StrBytes([]byte(x))
		}
	}
}

// checkColumns fails t unless the accessors agree with the boxed row r on
// every column b holds and report every column past r as absent.
func checkColumns(t *testing.T, l *Layout, b []byte, r Row) {
	t.Helper()
	for i := range len(l.types) {
		iv, iok := l.Int(b, i)
		sv, sok := l.Str(b, i)
		var want Value
		if i < len(r) {
			want = r[i]
		}
		wantInt, isInt := want.(int64)
		wantStr, isStr := want.(string)
		if iok != isInt || iv != wantInt || sok != isStr || sv != wantStr {
			t.Fatalf("column %d of %d-column row: Int = %d, %v; Str = %q, %v; want %v", i, len(r), iv, iok, sv, sok, want)
		}
	}
	if _, ok := l.Int(b, len(l.types)); ok {
		t.Fatal("Int reads a column past the layout")
	}
}

// FuzzRowLayout checks the flat row format against the boxed Row as oracle:
// a row written through the writer decodes to itself and reports its
// Row.Size; the typed accessors agree with it on every column, SetInt changes
// exactly its column, and every strict prefix of the row, and its bytes cut
// inside a column, report the columns they lack as absent.
func FuzzRowLayout(f *testing.F) {
	f.Add([]byte{0, 0})
	f.Add([]byte{4, 0, 1, 2, 3, 4, 5, 6, 7, 8, 2, 128, 0, 'a', 'b', 'c', 1, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f, 0})
	f.Add(append([]byte{2, 2, 127, 0}, bytes.Repeat([]byte{'x'}, 127)...))
	f.Add(append([]byte{11, 2, 44, 1, 0}, bytes.Repeat([]byte{7}, 400)...))
	f.Add([]byte(strings.Repeat("\x05\x00\x01\x02\xff\xff\xff\xff\xff\xff\xff\x7f", 8)))
	f.Fuzz(func(t *testing.T, data []byte) {
		tb, r := fuzzRow(data)
		l := tb.Layout()
		w := l.Writer()
		write(w, r)
		b, size, err := w.Row()
		if err != nil {
			t.Fatal(err)
		}
		b = bytes.Clone(b)
		if size != r.Size() || l.Size(b) != r.Size() {
			t.Fatalf("writer size %d, Layout.Size %d, Row.Size %d", size, l.Size(b), r.Size())
		}
		if enc, err := l.Encode(r); err != nil || !bytes.Equal(enc, b) {
			t.Fatalf("Encode = %x, %v; writer wrote %x", enc, err, b)
		}
		if got := l.Decode(b); !reflect.DeepEqual(got, r) {
			t.Fatalf("Decode = %#v, want %#v", got, r)
		}
		checkColumns(t, l, b, r)

		for i, v := range r {
			old, isInt := v.(int64)
			if ok := l.SetInt(b, i, ^old); ok != isInt {
				t.Fatalf("SetInt on a %s column reports %v", tb.Columns[i].Type, ok)
			}
			if !isInt {
				continue
			}
			want := append(Row(nil), r...)
			want[i] = ^old
			if got := l.Decode(b); !reflect.DeepEqual(got, want) {
				t.Fatalf("after SetInt(%d): %#v, want %#v", i, got, want)
			}
			l.SetInt(b, i, old)
		}
		last, lastInt := r[len(r)-1].(int64)
		if ok := l.Increment(b); ok != (lastInt && len(r) > 1) {
			t.Fatalf("Increment of a %d-column row ending in %s reports %v", len(r), tb.Columns[len(r)-1].Type, ok)
		} else if ok {
			if got, _ := l.Int(b, len(r)-1); got != last+1 {
				t.Fatalf("Increment made %d of %d", got, last)
			}
			l.SetInt(b, len(r)-1, last)
		}

		var cuts []int // byte lengths that end inside a column or right after one
		for k := range len(r) {
			write(w, r[:k])
			pb, psize, err := w.Row()
			cuts = append(cuts, len(pb), len(pb)+1, len(pb)+2)
			if err != nil || psize != r[:k].Size() {
				t.Fatalf("%d-column prefix: size %d, %v; want %d", k, psize, err, r[:k].Size())
			}
			if got := l.Decode(pb); !sameRow(got, r[:k]) {
				t.Fatalf("%d-column prefix decodes to %#v", k, got)
			}
			checkColumns(t, l, pb, r[:k])
		}
		for _, cut := range append(cuts, len(b)-1) {
			if cut >= len(b) {
				continue
			}
			got := l.Decode(b[:cut])
			if len(got) == len(r) || !sameRow(got, r[:len(got)]) {
				t.Fatalf("bytes cut at %d of %d decode to %#v", cut, len(b), got)
			}
			checkColumns(t, l, b[:cut], r[:len(got)])
		}
	})
}

// TestRowWriterRejects: a value of the wrong type, a value past the last
// column and an unsupported boxed value are errors, and the first one sticks.
func TestRowWriterRejects(t *testing.T) {
	l := sampleTable().Layout()
	w := l.Writer()
	cases := map[string]func(){
		"string into int64": func() { w.Str("x") },
		"too many columns":  func() { w.Ints(1, 2, 3); w.Str("x"); w.Int(5) },
	}
	for name, write := range cases {
		w.Reset()
		write()
		if _, _, err := w.Row(); err == nil || !strings.Contains(err.Error(), "orders") {
			t.Errorf("%s: err = %v, want one naming the table", name, err)
		}
	}
	if _, err := l.Encode(Row{int64(1), "x"}); err == nil {
		t.Error("Encode of a string into an int64 column should fail")
	}
	for _, v := range []Value{int32(1), 2.5} {
		if _, err := l.Encode(Row{v}); err == nil || !strings.Contains(err.Error(), "orders") {
			t.Errorf("Encode of a %T: err = %v, want one naming the table", v, err)
		}
	}
	if b, err := l.Encode(nil); b != nil || err != nil {
		t.Errorf("Encode(nil) = %v, %v; want an empty row", b, err)
	}
}
