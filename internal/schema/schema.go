// Package schema defines the logical data model of the storage manager:
// columns, tables, rows and primary keys. It is deliberately simple — integer
// and string columns, one integer primary-key column per table — since the
// paper's workloads (TATP, TPC-C and the microbenchmarks) need no more. The
// static workload information the planner reads (flow graphs and class mix)
// lives with the workloads, not here.
package schema

import "fmt"

// ColumnType enumerates the supported column types.
type ColumnType int

const (
	// Int64 is a 64-bit signed integer column.
	Int64 ColumnType = iota
	// String is a variable-length string column.
	String
)

// String implements fmt.Stringer.
func (t ColumnType) String() string {
	switch t {
	case Int64:
		return "int64"
	case String:
		return "string"
	default:
		return fmt.Sprintf("ColumnType(%d)", int(t))
	}
}

// Column describes a single column of a table.
type Column struct {
	Name string
	Type ColumnType
}

// Table describes a table: its columns and its primary-key column, which is
// an Int64.
type Table struct {
	Name       string
	Columns    []Column
	PrimaryKey string
}

// Validate checks structural invariants of the table definition.
func (t *Table) Validate() error {
	if t.Name == "" {
		return fmt.Errorf("schema: table with empty name")
	}
	if len(t.Columns) == 0 {
		return fmt.Errorf("schema: table %s has no columns", t.Name)
	}
	seen := make(map[string]struct{}, len(t.Columns))
	for _, c := range t.Columns {
		if c.Name == "" {
			return fmt.Errorf("schema: table %s has a column with empty name", t.Name)
		}
		if _, dup := seen[c.Name]; dup {
			return fmt.Errorf("schema: table %s has duplicate column %s", t.Name, c.Name)
		}
		if c.Type != Int64 && c.Type != String {
			return fmt.Errorf("schema: column %s of %s has unsupported type %s", c.Name, t.Name, c.Type)
		}
		seen[c.Name] = struct{}{}
	}
	// The primary key's checks are the ones the layout resolves it with.
	return t.Layout().keyErr
}

// ColumnIndex returns the position of the named column, or -1.
func (t *Table) ColumnIndex(name string) int {
	for i, c := range t.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Value is one cell value: an int64 or a string.
type Value any

// Row is a tuple: one value per column, in column order. It is the boxed form
// of a row at the API edge (generated actions, the keyed table operations,
// recovery); stored rows are flat byte slices in their table's Layout.
type Row []Value

// Clone returns a copy of the row (values are immutable scalars, so a shallow
// copy of the slice suffices).
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// Size returns the approximate size of the row in bytes: 8 per non-string
// value plus each string's length. Layout.Size and RowWriter report the same
// for a flat row.
func (r Row) Size() int {
	size := 0
	for _, v := range r {
		switch x := v.(type) {
		case string:
			size += len(x)
		default:
			size += 8
		}
	}
	return size
}

// Key is an order-preserving encoding of a primary key value used by the
// B-trees and by range partitioning.
type Key uint64

// KeyFromInt maps a non-negative integer primary key onto a Key. The mapping
// is the identity so that key 0 coincides with the lowest partition bound
// used by range partitioning; negative values (which no workload uses) are
// clamped to 0.
func KeyFromInt(v int64) Key {
	if v < 0 {
		return 0
	}
	return Key(v)
}

// Int returns the integer that produced this key via KeyFromInt.
func (k Key) Int() int64 {
	return int64(k)
}
