package schema

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"slices"
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

// intSeed is the fuzz input of a row of Int64 columns holding vs.
func intSeed(vs ...int64) []byte {
	b := []byte{byte(len(vs) - 1)}
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(append(b, byte(Int64)), uint64(v))
	}
	return b
}

// sameRow reports whether got deep-equals want, a row with no columns being
// nil.
func sameRow(got, want Row) bool {
	return len(got) == 0 && len(want) == 0 || reflect.DeepEqual(got, want)
}

// write writes r through w as a generator would, with the typed writes: a run
// of Int64 values in one Ints call.
func write(w *RowWriter, r Row) {
	w.Reset()
	var ints []int64
	for _, v := range r {
		if x, ok := v.(int64); ok {
			ints = append(ints, x)
			continue
		}
		w.Ints(ints...)
		ints = ints[:0]
		w.StrBytes([]byte(v.(string)))
	}
	w.Ints(ints...)
}

// checkColumns fails t unless the accessors agree with the boxed row r on
// every column b holds and report every column past r as absent, and that
// b's column count, its last column and its Layout.Size are r's.
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
	n, lo, hi := l.last(b)
	if n != len(r) || l.Size(b) != r.Size() {
		t.Fatalf("%d-column row: last counts %d columns, Size is %d, want %d", len(r), n, l.Size(b), r.Size())
	}
	if clo, chi, _ := l.column(b, n-1); n > 0 && (lo != clo || hi != chi) {
		t.Fatalf("%d-column row: last puts its last column at [%d, %d), column at [%d, %d)", n, lo, hi, clo, chi)
	}
}

// FuzzRowLayout checks the flat row format against the boxed Row as oracle:
// a row written through the writer is binary.AppendVarint of each Int64 and
// a uvarint length and the bytes of each string, decodes to itself and
// reports its Row.Size; the typed accessors agree with it on every column;
// Increment adds one to the last column, in place when the varint's width
// holds and leaving the input untouched when it does not; and every strict
// prefix of the row, and its bytes cut inside a column, report the columns
// they lack as absent. The seeds after the fifth put values at the edges of
// the varint widths, where an increment widens or narrows the row.
func FuzzRowLayout(f *testing.F) {
	f.Add([]byte{0, 0})
	f.Add([]byte{4, 0, 1, 2, 3, 4, 5, 6, 7, 8, 2, 128, 0, 'a', 'b', 'c', 1, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f, 0})
	f.Add(append([]byte{2, 2, 127, 0}, bytes.Repeat([]byte{'x'}, 127)...))
	f.Add(append([]byte{11, 2, 44, 1, 0}, bytes.Repeat([]byte{7}, 400)...))
	f.Add([]byte(strings.Repeat("\x05\x00\x01\x02\xff\xff\xff\xff\xff\xff\xff\x7f", 8)))
	for _, v := range []int64{63, 64, -64, -65, 8191, 8192, 1<<20 - 1, 1 << 20, math.MinInt64, math.MaxInt64} {
		f.Add(intSeed(7, v))
	}
	f.Add(intSeed(63, -65, 8191, 1<<20-1, math.MaxInt64, math.MinInt64))
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
		var want []byte
		for _, v := range r {
			if x, ok := v.(int64); ok {
				want = binary.AppendVarint(want, x)
			} else {
				want = append(binary.AppendUvarint(want, uint64(len(v.(string)))), v.(string)...)
			}
		}
		if !bytes.Equal(b, want) {
			t.Fatalf("writer wrote %x, want %x", b, want)
		}
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

		last, lastInt := r[len(r)-1].(int64)
		in := bytes.Clone(b)
		var scratch []byte
		got, ok := l.Increment(in, &scratch)
		switch inPlace := &got[0] == &in[0]; {
		case ok != (lastInt && len(r) > 1):
			t.Fatalf("Increment of a %d-column row ending in %s reports %v", len(r), tb.Columns[len(r)-1].Type, ok)
		case !ok:
			if !inPlace || !bytes.Equal(in, b) {
				t.Fatalf("a refused Increment changed the row to %x", got)
			}
		case inPlace != (varintLen(last+1) == varintLen(last)):
			t.Fatalf("Increment of %d in place: %v", last, inPlace)
		case !inPlace && !bytes.Equal(in, b):
			t.Fatalf("Increment of %d wrote into its input: %x", last, in)
		default:
			want := slices.Clone(r)
			want[len(r)-1] = last + 1
			if d := l.Decode(got); !reflect.DeepEqual(d, want) {
				t.Fatalf("Increment made %#v of %#v", d, r)
			}
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

// TestEncodeAllocatesOnce: Encode grows its result once, whatever the widths
// of the row's varints.
func TestEncodeAllocatesOnce(t *testing.T) {
	l := sampleTable().Layout()
	for _, r := range []Row{{int64(1)}, {int64(1), int64(2), int64(3), "x"}, {int64(math.MinInt64), int64(1 << 20), int64(-65), strings.Repeat("y", 200)}} {
		if a := testing.AllocsPerRun(10, func() { l.Encode(r) }); a != 1 {
			t.Errorf("Encode(%.20v) costs %.1f allocations, want 1", r, a)
		}
	}
}

// TestRowWriterRejects: a value of the wrong type, a value past the last
// column and an unsupported boxed value are errors, and the first one sticks.
func TestRowWriterRejects(t *testing.T) {
	l := sampleTable().Layout()
	w := l.Writer()
	cases := map[string]func(){
		"string into int64":  func() { w.Str("x") },
		"too many columns":   func() { w.Ints(1, 2, 3); w.Str("x"); w.Int(5) },
		"ints into a string": func() { w.Ints(1, 2, 3, 4) },
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
