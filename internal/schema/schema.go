// Package schema defines the logical data model of the storage manager:
// columns, tables, rows, primary keys, foreign keys and the catalog. It is
// deliberately simple — fixed typed columns, integer or string values — since
// the paper's workloads (TATP, TPC-C and the microbenchmarks) only need
// integer keys, short strings and numeric payload columns.
package schema

import (
	"fmt"
	"sort"
	"strings"
)

// ColumnType enumerates the supported column types.
type ColumnType int

const (
	// Int64 is a 64-bit signed integer column.
	Int64 ColumnType = iota
	// Float64 is a floating-point column.
	Float64
	// String is a variable-length string column.
	String
)

// String implements fmt.Stringer.
func (t ColumnType) String() string {
	switch t {
	case Int64:
		return "int64"
	case Float64:
		return "float64"
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

// ForeignKey declares that column Column of the owning table references the
// primary key column RefColumn of table RefTable. Foreign keys are the static
// data dependencies the ATraPos cost model extracts from the schema
// (Section V-A, "Static workload information").
type ForeignKey struct {
	Column    string
	RefTable  string
	RefColumn string
}

// Table describes a table: its columns, the primary-key column(s) and any
// foreign keys.
type Table struct {
	Name        string
	Columns     []Column
	PrimaryKey  []string
	ForeignKeys []ForeignKey
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
		seen[c.Name] = struct{}{}
	}
	if len(t.PrimaryKey) == 0 {
		return fmt.Errorf("schema: table %s has no primary key", t.Name)
	}
	for _, pk := range t.PrimaryKey {
		if _, ok := seen[pk]; !ok {
			return fmt.Errorf("schema: table %s primary key column %s does not exist", t.Name, pk)
		}
	}
	for _, fk := range t.ForeignKeys {
		if _, ok := seen[fk.Column]; !ok {
			return fmt.Errorf("schema: table %s foreign key column %s does not exist", t.Name, fk.Column)
		}
		if fk.RefTable == "" || fk.RefColumn == "" {
			return fmt.Errorf("schema: table %s has incomplete foreign key on %s", t.Name, fk.Column)
		}
	}
	return nil
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

// Value is one cell value. Only int64, float64 and string are used.
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
// B-trees and by range partitioning. Integer keys map directly; composite and
// string keys are folded into a comparable uint64.
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

// KeyFromString folds a string into an order-preserving (prefix-based) key.
func KeyFromString(s string) Key {
	var k uint64
	for i := 0; i < 8; i++ {
		k <<= 8
		if i < len(s) {
			k |= uint64(s[i])
		}
	}
	return Key(k)
}

// CompositeKey combines a primary component with a secondary component into a
// single ordered key, e.g. (warehouse id, district id) in TPC-C. The primary
// component dominates the ordering; the secondary must fit in 20 bits.
func CompositeKey(primary int64, secondary int64) Key {
	return Key((uint64(primary) << 20) | (uint64(secondary) & ((1 << 20) - 1)))
}

// Catalog is a registry of table definitions. It is single-owner, with no
// mutex: each storage.Manager holds one, and only its engine's goroutine
// creates tables in it (engine.New) or looks them up.
type Catalog struct {
	tables map[string]*Table
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{tables: make(map[string]*Table)}
}

// Add validates and registers a table definition.
func (c *Catalog) Add(t *Table) error {
	if err := t.Validate(); err != nil {
		return err
	}
	if _, exists := c.tables[t.Name]; exists {
		return fmt.Errorf("schema: table %s already exists", t.Name)
	}
	c.tables[t.Name] = t
	return nil
}

// Table looks a table up by name.
func (c *Catalog) Table(name string) (*Table, bool) {
	t, ok := c.tables[name]
	return t, ok
}

// Tables returns all table definitions sorted by name.
func (c *Catalog) Tables() []*Table {
	out := make([]*Table, 0, len(c.tables))
	for _, t := range c.tables {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// String renders the catalog as a compact schema listing.
func (c *Catalog) String() string {
	var b strings.Builder
	for _, t := range c.Tables() {
		fmt.Fprintf(&b, "%s(", t.Name)
		for i, col := range t.Columns {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%s %s", col.Name, col.Type)
		}
		fmt.Fprintf(&b, ") pk=%v\n", t.PrimaryKey)
	}
	return b.String()
}
