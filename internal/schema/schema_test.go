package schema

import (
	"testing"
	"testing/quick"
)

func sampleTable() *Table {
	return &Table{
		Name: "orders",
		Columns: []Column{
			{Name: "o_id", Type: Int64},
			{Name: "o_c_id", Type: Int64},
			{Name: "o_total", Type: Float64},
			{Name: "o_comment", Type: String},
		},
		PrimaryKey: []string{"o_id"},
		ForeignKeys: []ForeignKey{
			{Column: "o_c_id", RefTable: "customer", RefColumn: "c_id"},
		},
	}
}

func TestTableValidate(t *testing.T) {
	if err := sampleTable().Validate(); err != nil {
		t.Fatalf("valid table rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Table)
	}{
		{"empty name", func(tb *Table) { tb.Name = "" }},
		{"no columns", func(tb *Table) { tb.Columns = nil }},
		{"empty column name", func(tb *Table) { tb.Columns[0].Name = "" }},
		{"duplicate column", func(tb *Table) { tb.Columns[1].Name = "o_id" }},
		{"no primary key", func(tb *Table) { tb.PrimaryKey = nil }},
		{"unknown pk column", func(tb *Table) { tb.PrimaryKey = []string{"nope"} }},
		{"unknown fk column", func(tb *Table) { tb.ForeignKeys[0].Column = "nope" }},
		{"incomplete fk", func(tb *Table) { tb.ForeignKeys[0].RefTable = "" }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tb := sampleTable()
			tc.mutate(tb)
			if err := tb.Validate(); err == nil {
				t.Errorf("expected validation error for %s", tc.name)
			}
		})
	}
}

func TestColumnIndexAndTypeString(t *testing.T) {
	tb := sampleTable()
	if tb.ColumnIndex("o_total") != 2 {
		t.Errorf("ColumnIndex(o_total) = %d, want 2", tb.ColumnIndex("o_total"))
	}
	if tb.ColumnIndex("missing") != -1 {
		t.Error("missing column should return -1")
	}
	for _, ct := range []ColumnType{Int64, Float64, String, ColumnType(9)} {
		if ct.String() == "" {
			t.Errorf("empty string for %d", ct)
		}
	}
}

func TestRowCloneAndSize(t *testing.T) {
	r := Row{int64(1), 2.5, "hello"}
	c := r.Clone()
	c[0] = int64(9)
	if r[0].(int64) != 1 {
		t.Error("Clone did not copy the row")
	}
	if r.Size() != 8+8+5 {
		t.Errorf("Size = %d, want 21", r.Size())
	}
}

func TestKeyFromIntOrderPreserving(t *testing.T) {
	prop := func(aRaw, bRaw uint32) bool {
		a, b := int64(aRaw), int64(bRaw)
		ka, kb := KeyFromInt(a), KeyFromInt(b)
		switch {
		case a < b:
			return ka < kb
		case a > b:
			return ka > kb
		default:
			return ka == kb
		}
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestKeyFromIntRoundTrip(t *testing.T) {
	prop := func(vRaw uint32) bool {
		v := int64(vRaw)
		return KeyFromInt(v).Int() == v
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
	// Negative values are clamped rather than wrapping around.
	if KeyFromInt(-5) != 0 {
		t.Errorf("KeyFromInt(-5) = %d, want 0", KeyFromInt(-5))
	}
}

func TestKeyFromStringPrefixOrder(t *testing.T) {
	if KeyFromString("apple") >= KeyFromString("banana") {
		t.Error("apple should order before banana")
	}
	if KeyFromString("") >= KeyFromString("a") {
		t.Error("empty string should order first")
	}
}

func TestCompositeKeyOrdering(t *testing.T) {
	if CompositeKey(1, 500) >= CompositeKey(2, 1) {
		t.Error("primary component must dominate ordering")
	}
	if CompositeKey(3, 1) >= CompositeKey(3, 2) {
		t.Error("secondary component must break ties")
	}
}

// rowKey is the key Layout.Key extracts from r in tb's flat layout.
func rowKey(t *testing.T, tb *Table, r Row) (Key, error) {
	t.Helper()
	l := tb.Layout()
	b, err := l.Encode(r)
	if err != nil {
		t.Fatalf("encoding %v: %v", r, err)
	}
	return l.Key(b)
}

func TestRowKey(t *testing.T) {
	tb := sampleTable()
	k, err := rowKey(t, tb, Row{int64(42), int64(7), 1.0, "x"})
	if err != nil {
		t.Fatal(err)
	}
	if k != KeyFromInt(42) {
		t.Errorf("RowKey = %d, want %d", k, KeyFromInt(42))
	}

	// Composite integer key.
	comp := &Table{
		Name:       "stock",
		Columns:    []Column{{Name: "w_id", Type: Int64}, {Name: "i_id", Type: Int64}},
		PrimaryKey: []string{"w_id", "i_id"},
	}
	k, err = rowKey(t, comp, Row{int64(3), int64(9)})
	if err != nil {
		t.Fatal(err)
	}
	if k != CompositeKey(3, 9) {
		t.Errorf("composite RowKey = %d, want %d", k, CompositeKey(3, 9))
	}
	if _, err := rowKey(t, comp, Row{int64(3)}); err == nil {
		t.Error("a row without the second key column should error")
	}

	// String key.
	str := &Table{
		Name:       "names",
		Columns:    []Column{{Name: "n", Type: String}},
		PrimaryKey: []string{"n"},
	}
	if k, err := rowKey(t, str, Row{"abc"}); err != nil || k != KeyFromString("abc") {
		t.Errorf("string RowKey = %d, %v", k, err)
	}

	// Errors.
	if _, err := rowKey(t, &Table{Name: "x", Columns: []Column{{Name: "a", Type: Int64}}}, Row{int64(1)}); err == nil {
		t.Error("table without primary key should error")
	}
	if _, err := rowKey(t, tb, Row{}); err == nil {
		t.Error("short row should error")
	}
	float := &Table{Name: "f", Columns: []Column{{Name: "a", Type: Float64}}, PrimaryKey: []string{"a"}}
	if _, err := rowKey(t, float, Row{3.14}); err == nil {
		t.Error("float primary key should error")
	}
	badComp := &Table{
		Name:       "bad",
		Columns:    []Column{{Name: "a", Type: Int64}, {Name: "b", Type: String}},
		PrimaryKey: []string{"a", "b"},
	}
	if _, err := rowKey(t, badComp, Row{int64(1), "x"}); err == nil {
		t.Error("non-integer second key column should error")
	}
}

func TestCatalog(t *testing.T) {
	c := NewCatalog()
	if err := c.Add(sampleTable()); err != nil {
		t.Fatal(err)
	}
	if err := c.Add(sampleTable()); err == nil {
		t.Error("duplicate table should be rejected")
	}
	if err := c.Add(&Table{Name: ""}); err == nil {
		t.Error("invalid table should be rejected")
	}
	customer := &Table{
		Name:       "customer",
		Columns:    []Column{{Name: "c_id", Type: Int64}},
		PrimaryKey: []string{"c_id"},
	}
	if err := c.Add(customer); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Table("orders"); !ok {
		t.Error("orders not found")
	}
	if _, ok := c.Table("nope"); ok {
		t.Error("unexpected table")
	}
	if tables := c.Tables(); len(tables) != 2 || tables[0].Name != "customer" || tables[1].Name != "orders" {
		t.Errorf("Tables = %v", tables)
	}
	if c.String() == "" {
		t.Error("catalog String should not be empty")
	}
}
