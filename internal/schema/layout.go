package schema

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// Layout is a table's flat row format, resolved once per table: its columns
// in declared order, 8 bytes little-endian per Int64 column and a uvarint
// length followed by the bytes per String column. A stored row is one
// byte slice in this format, the way a storage manager keeps a record as a
// byte image in its page.
//
// A row may hold only a prefix of the columns (a short row): recovery redoes
// one-column rows and some workloads insert rows with no columns at all. The
// accessors report a column past a row's end as absent instead of panicking.
type Layout struct {
	t     *Table
	types []ColumnType
	// fixed is the number of leading columns before the first String column:
	// column i < fixed starts at byte 8*i.
	fixed int
	// pk is the position of the primary-key column; keyErr is why the key
	// cannot be extracted from any row of the table, if it cannot.
	pk     int
	keyErr error
}

// Layout resolves the table's flat row format and its primary-key column.
func (t *Table) Layout() *Layout {
	l := &Layout{t: t, types: make([]ColumnType, len(t.Columns)), pk: t.ColumnIndex(t.PrimaryKey)}
	l.fixed = len(t.Columns)
	for i, c := range t.Columns {
		l.types[i] = c.Type
		if c.Type == String && l.fixed == len(t.Columns) {
			l.fixed = i
		}
	}
	switch {
	case t.PrimaryKey == "":
		l.keyErr = fmt.Errorf("schema: table %s has no primary key", t.Name)
	case l.pk < 0:
		l.keyErr = fmt.Errorf("schema: table %s primary key column %s does not exist", t.Name, t.PrimaryKey)
	case l.types[l.pk] != Int64:
		l.keyErr = fmt.Errorf("schema: primary key %s of %s is %s, not int64", t.PrimaryKey, t.Name, l.types[l.pk])
	}
	return l
}

// field returns the bytes [lo, hi) of column c's value in b, given that the
// column's encoding starts at off, or ok=false when b does not hold all of it.
func (l *Layout) field(b []byte, c, off int) (lo, hi int, ok bool) {
	if off > len(b) {
		return 0, 0, false
	}
	if l.types[c] != String {
		return off, off + 8, off+8 <= len(b)
	}
	var n uint64
	var k int
	if off < len(b) && b[off] < 0x80 { // a string shorter than 128 bytes
		n, k = uint64(b[off]), 1
	} else {
		n, k = binary.Uvarint(b[off:])
	}
	if k <= 0 || n > uint64(len(b)-off-k) {
		return 0, 0, false
	}
	return off + k, off + k + int(n), true
}

// column returns the bytes of column i's value in b, or ok=false when i is not
// a column of the layout or b is too short to hold it.
func (l *Layout) column(b []byte, i int) (lo, hi int, ok bool) {
	if i < 0 || i >= len(l.types) {
		return 0, 0, false
	}
	c := min(i, l.fixed)
	off := 8 * c
	for ; ; c++ {
		if lo, hi, ok = l.field(b, c, off); !ok || c == i {
			return lo, hi, ok
		}
		off = hi
	}
}

// last returns how many whole columns b holds and where the last one's value
// starts.
func (l *Layout) last(b []byte) (n, lo int) {
	if l.fixed == len(l.types) {
		n = min(len(b)/8, len(l.types))
		return n, 8 * (n - 1)
	}
	for off := 0; n < len(l.types); n++ {
		start, hi, ok := l.field(b, n, off)
		if !ok {
			break
		}
		lo, off = start, hi
	}
	return n, lo
}

// Int returns Int64 column i of row b; ok is false when the column is absent
// or of another type.
func (l *Layout) Int(b []byte, i int) (v int64, ok bool) {
	lo, _, ok := l.column(b, i)
	if !ok || l.types[i] != Int64 {
		return 0, false
	}
	return int64(binary.LittleEndian.Uint64(b[lo:])), true
}

// SetInt overwrites Int64 column i of row b in place and reports whether the
// column is there to overwrite.
func (l *Layout) SetInt(b []byte, i int, v int64) bool {
	lo, _, ok := l.column(b, i)
	if !ok || l.types[i] != Int64 {
		return false
	}
	binary.LittleEndian.PutUint64(b[lo:], uint64(v))
	return true
}

// Str returns String column i of row b; ok is false when the column is absent
// or of another type.
func (l *Layout) Str(b []byte, i int) (s string, ok bool) {
	lo, hi, ok := l.column(b, i)
	if !ok || l.types[i] != String {
		return "", false
	}
	return string(b[lo:hi]), true
}

// Increment adds one, in place and without wrapping, to the last column row b
// holds if that column is an Int64 and b holds more than one column, and
// reports whether it did. It is the update the engine applies for an update
// action that carries no row.
func (l *Layout) Increment(b []byte) bool {
	n, lo := l.last(b)
	if n < 2 || l.types[n-1] != Int64 {
		return false
	}
	binary.LittleEndian.PutUint64(b[lo:], binary.LittleEndian.Uint64(b[lo:])+1)
	return true
}

// Size returns Row.Size of the columns b holds: 8 bytes per Int64 column and
// the length of each string. It prices a row in the cost model.
func (l *Layout) Size(b []byte) int {
	size := 0
	for c, off := 0, 0; c < len(l.types); c++ {
		lo, hi, ok := l.field(b, c, off)
		if !ok {
			break
		}
		size += hi - lo
		off = hi
	}
	return size
}

// Key extracts row b's primary key: KeyFromInt of its primary-key column.
func (l *Layout) Key(b []byte) (Key, error) {
	if l.keyErr != nil {
		return 0, l.keyErr
	}
	v, ok := l.Int(b, l.pk)
	if !ok {
		return 0, fmt.Errorf("schema: row for %s is missing primary key column %s", l.t.Name, l.t.PrimaryKey)
	}
	return KeyFromInt(v), nil
}

// Decode returns the boxed form of the columns row b holds (nil for a row
// with none), for callers at the boxed API edge.
func (l *Layout) Decode(b []byte) Row {
	var r Row
	for c, off := 0, 0; c < len(l.types); c++ {
		lo, hi, ok := l.field(b, c, off)
		if !ok {
			break
		}
		if r == nil {
			r = make(Row, 0, len(l.types))
		}
		if l.types[c] == Int64 {
			r = append(r, int64(binary.LittleEndian.Uint64(b[lo:])))
		} else {
			r = append(r, string(b[lo:hi]))
		}
		off = hi
	}
	return r
}

// Encode returns the flat form of the boxed row r in one allocation (nil for
// a row with no columns). A value whose type is not its column's, or a value
// past the last column, is an error.
func (l *Layout) Encode(r Row) ([]byte, error) { return l.AppendEncode(nil, r) }

// AppendEncode appends the flat form of the boxed row r to dst, growing it at
// most once, and returns the extended slice; errors are Encode's.
func (l *Layout) AppendEncode(dst []byte, r Row) ([]byte, error) {
	n := 0
	for _, v := range r {
		if s, ok := v.(string); ok {
			n += uvarintLen(len(s)) + len(s)
		} else {
			n += 8
		}
	}
	w := RowWriter{l: l, buf: slices.Grow(dst, n)}
	for _, v := range r {
		switch x := v.(type) {
		case int64:
			w.Int(x)
		case string:
			w.Str(x)
		default:
			if w.err == nil {
				w.err = fmt.Errorf("schema: unsupported value type %T in a row for %s", v, l.t.Name)
			}
		}
	}
	return w.buf, w.err
}

// uvarintLen is the length of n's uvarint encoding.
func uvarintLen(n int) int {
	k := 1
	for ; n >= 0x80; n >>= 7 {
		k++
	}
	return k
}

// RowWriter encodes one row of a Layout, column by column in declared order.
// Writing a value of the wrong type, or past the last column, records an error
// that Row reports; later writes are ignored. A writer is reused row after row
// through Reset, so a row costs no allocation until the caller copies it out.
type RowWriter struct {
	l    *Layout
	buf  []byte
	n    int // columns written
	size int // Row.Size of what was written
	err  error
}

// Writer returns a writer of rows of this layout.
func (l *Layout) Writer() *RowWriter { return &RowWriter{l: l} }

// Reset empties the writer for the next row.
func (w *RowWriter) Reset() {
	w.buf, w.n, w.size, w.err = w.buf[:0], 0, 0, nil
}

// next claims the next column for a value of type t.
func (w *RowWriter) next(t ColumnType) bool {
	if w.err != nil {
		return false
	}
	if w.n >= len(w.l.types) {
		w.err = fmt.Errorf("schema: row for %s has more than %d columns", w.l.t.Name, len(w.l.types))
		return false
	}
	if ct := w.l.types[w.n]; ct != t {
		w.err = fmt.Errorf("schema: column %s of %s is %s, not %s", w.l.t.Columns[w.n].Name, w.l.t.Name, ct, t)
		return false
	}
	w.n++
	return true
}

// Int writes the next column, an Int64.
func (w *RowWriter) Int(v int64) {
	if w.next(Int64) {
		w.buf = binary.LittleEndian.AppendUint64(w.buf, uint64(v))
		w.size += 8
	}
}

// Ints writes the next len(vs) columns, all Int64.
func (w *RowWriter) Ints(vs ...int64) {
	for _, v := range vs {
		w.Int(v)
	}
}

// Str writes the next column, a String.
func (w *RowWriter) Str(s string) {
	if w.next(String) {
		w.buf = binary.AppendUvarint(w.buf, uint64(len(s)))
		w.buf = append(w.buf, s...)
		w.size += len(s)
	}
}

// StrBytes writes the next column, a String holding the bytes of s, so a
// generator can format a string in a buffer of its own without allocating it.
func (w *RowWriter) StrBytes(s []byte) {
	if w.next(String) {
		w.buf = binary.AppendUvarint(w.buf, uint64(len(s)))
		w.buf = append(w.buf, s...)
		w.size += len(s)
	}
}

// Row returns the row written since the last Reset, which stays valid only
// until the next Reset; its Row.Size; and the first error a write recorded.
func (w *RowWriter) Row() (b []byte, size int, err error) {
	return w.buf, w.size, w.err
}
