package schema

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
)

// Layout is a table's flat row format, resolved once per table: its columns
// in declared order, a zigzag varint per Int64 column (binary.AppendVarint's
// encoding, one byte for -64 … 63) and a uvarint length followed by the bytes
// per String column. A stored row is one byte slice in this format, the way a
// storage manager keeps a record as a byte image in its page.
//
// A row may hold only a prefix of the columns (a short row): recovery redoes
// one-column rows and some workloads insert rows with no columns at all. The
// accessors report a column past a row's end as absent instead of panicking.
type Layout struct {
	t     *Table
	types []ColumnType
	ints  []int // ints[c]: how many Int64 columns run from column c on
	// pk is the position of the primary-key column; keyErr is why the key
	// cannot be extracted from any row of the table, if it cannot.
	pk     int
	keyErr error
}

// Layout resolves the table's flat row format and its primary-key column.
func (t *Table) Layout() *Layout {
	l := &Layout{t: t, types: make([]ColumnType, len(t.Columns)), ints: make([]int, len(t.Columns)+1), pk: t.ColumnIndex(t.PrimaryKey)}
	for i := len(t.Columns) - 1; i >= 0; i-- {
		if l.types[i] = t.Columns[i].Type; l.types[i] == Int64 {
			l.ints[i] = l.ints[i+1] + 1
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
	if off >= len(b) {
		return 0, 0, false
	}
	if l.types[c] == Int64 { // a varint ends at its first byte below 0x80
		for i := off; i < min(len(b), off+binary.MaxVarintLen64); i++ {
			if b[i] < 0x80 {
				return off, i + 1, true
			}
		}
		return 0, 0, false
	}
	n, k := uint64(b[off]), 1
	if n >= 0x80 { // a string of 128 bytes or more
		n, k = binary.Uvarint(b[off:])
	}
	if k <= 0 || n > uint64(len(b)-off-k) {
		return 0, 0, false
	}
	return off + k, off + k + int(n), true
}

// scan walks the first k columns of b from column 0 and returns how many of
// them b holds whole, the offset just past them when that is all k, and their
// Row.Size. A varint ends at its first byte below 0x80, so in a run of Int64
// columns eight bytes that end fewer varints than are left are skipped at once.
func (l *Layout) scan(b []byte, k int) (n, off, size int) {
	for n < k {
		if end := n + min(l.ints[n], k-n); end > n {
			for ; off+8 <= len(b); off += 8 {
				t := bits.OnesCount64(^binary.LittleEndian.Uint64(b[off:]) & 0x8080808080808080)
				if n+t >= end {
					break
				}
				n, size = n+t, size+8*t
			}
			for ; n < end && off < len(b); off++ {
				if b[off] < 0x80 {
					n, size = n+1, size+8
				}
			}
			if n < end {
				break
			}
		} else if lo, hi, ok := l.field(b, n, off); ok {
			n, off, size = n+1, hi, size+hi-lo
		} else {
			break
		}
	}
	return n, off, size
}

// column returns the bytes of column i's value in b, or ok=false when i is not
// a column of the layout or b is too short to hold it.
func (l *Layout) column(b []byte, i int) (lo, hi int, ok bool) {
	if i < 0 || i >= len(l.types) {
		return 0, 0, false
	}
	if n, off, _ := l.scan(b, i); n == i {
		return l.field(b, i, off)
	}
	return 0, 0, false
}

// last returns how many whole columns b holds and, if any, the bytes [lo, hi)
// of the last one's value.
func (l *Layout) last(b []byte) (n, lo, hi int) {
	n, hi, _ = l.scan(b, len(l.types))
	if n == len(l.types) && n >= 2 && l.ints[n-2] >= 2 { // the varint before ends where this one starts
		for lo = hi - 1; b[lo-1] >= 0x80; lo-- {
		}
		return n, lo, hi
	}
	if n > 0 {
		lo, hi, _ = l.column(b, n-1)
	}
	return n, lo, hi
}

// Int returns Int64 column i of row b; ok is false when the column is absent
// or of another type.
func (l *Layout) Int(b []byte, i int) (v int64, ok bool) {
	lo, hi, ok := l.column(b, i)
	if !ok || l.types[i] != Int64 {
		return 0, false
	}
	v, _ = binary.Varint(b[lo:hi])
	return v, true
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

// Increment adds one, without wrapping, to the last column row b holds if
// that column is an Int64 and b holds more than one column, and reports
// whether it did. It writes in place when the new value's varint is as wide as
// the old one's; otherwise it leaves b as it was and returns the row rebuilt
// in *scratch, the caller's buffer. It is the update the engine applies for an
// update action that carries no row.
func (l *Layout) Increment(b []byte, scratch *[]byte) ([]byte, bool) {
	n, lo, hi := l.last(b)
	if n < 2 || l.types[n-1] != Int64 {
		return b, false
	}
	v, _ := binary.Varint(b[lo:hi])
	if v++; varintLen(v) == hi-lo {
		binary.PutVarint(b[lo:], v)
		return b, true
	}
	*scratch = append(binary.AppendVarint(append((*scratch)[:0], b[:lo]...), v), b[hi:]...)
	return *scratch, true
}

// Size returns Row.Size of the columns b holds: 8 bytes per Int64 column, as
// wide as its varint may be, and the length of each string. It prices a row.
func (l *Layout) Size(b []byte) int {
	_, _, size := l.scan(b, len(l.types))
	return size
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
			v, _ := binary.Varint(b[lo:hi])
			r = append(r, v)
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
	if len(r) == 0 {
		return dst, nil
	}
	n := 0
	for _, v := range r {
		switch x := v.(type) {
		case int64:
			n += varintLen(x)
		case string:
			n += uvarintLen(uint64(len(x))) + len(x)
		}
	}
	w := RowWriter{l: l, buf: slices.Grow(dst, n+binary.MaxVarintLen64)} // Ints writes into room for one more varint
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

// varintLen is the length of v's zigzag varint encoding.
func varintLen(v int64) int { return uvarintLen(uint64(v<<1) ^ uint64(v>>63)) }

// uvarintLen is the length of x's uvarint encoding.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// RowWriter encodes one row of a Layout, column by column in declared order.
// Writing a value of the wrong type, or past the last column, records an error
// that Row reports; later writes are ignored. A writer is reused row after row
// through Reset, so a row costs no allocation until the caller copies it out.
type RowWriter struct {
	l    *Layout
	buf  []byte
	n    int   // columns written
	size int   // Row.Size of what was written
	key  int64 // the primary-key column's value, once written
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
func (w *RowWriter) Int(v int64) { w.Ints(v) }

// Ints writes the next len(vs) columns, all Int64.
func (w *RowWriter) Ints(vs ...int64) {
	if w.err != nil || w.l.ints[w.n] < len(vs) {
		for w.next(Int64) { // up to the column that does not fit, recording why
		}
		return
	}
	if i := w.l.pk - w.n; i >= 0 && i < len(vs) {
		w.key = vs[i]
	}
	w.buf = slices.Grow(w.buf, len(vs)*binary.MaxVarintLen64)
	b, n := w.buf[:cap(w.buf)], len(w.buf)
	for _, v := range vs { // up to three bytes without a loop: ids and counters
		if x := uint64(v<<1) ^ uint64(v>>63); x < 1<<21 {
			b[n], b[n+1], b[n+2] = byte(x)|0x80, byte(x>>7)|0x80, byte(x>>14)
			n += uvarintLen(x)
			b[n-1] &= 0x7f
		} else {
			n += binary.PutUvarint(b[n:], x)
		}
	}
	w.buf = w.buf[:n]
	w.n += len(vs)
	w.size += 8 * len(vs)
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

// Key returns the primary key of the row written since the last Reset:
// KeyFromInt of its primary-key column.
func (w *RowWriter) Key() (Key, error) {
	if w.l.keyErr == nil && w.n <= w.l.pk {
		return 0, fmt.Errorf("schema: row for %s is missing primary key column %s", w.l.t.Name, w.l.t.PrimaryKey)
	}
	return KeyFromInt(w.key), w.l.keyErr
}

// Row returns the row written since the last Reset, which stays valid only
// until the next Reset; its Row.Size; and the first error a write recorded.
func (w *RowWriter) Row() (b []byte, size int, err error) {
	return w.buf, w.size, w.err
}
