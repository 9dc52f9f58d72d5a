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
			{Name: "o_total", Type: Int64},
			{Name: "o_comment", Type: String},
		},
		PrimaryKey: "o_id",
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
		{"no primary key", func(tb *Table) { tb.PrimaryKey = "" }},
		{"unknown pk column", func(tb *Table) { tb.PrimaryKey = "nope" }},
		{"string pk column", func(tb *Table) { tb.PrimaryKey = "o_comment" }},
		{"unsupported column type", func(tb *Table) { tb.Columns[2].Type = ColumnType(2) }},
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
	for _, ct := range []ColumnType{Int64, String, ColumnType(9)} {
		if ct.String() == "" {
			t.Errorf("empty string for %d", ct)
		}
	}
}

func TestRowCloneAndSize(t *testing.T) {
	r := Row{int64(1), int64(2), "hello"}
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

// rowKey is the key a RowWriter of tb's layout reports for r.
func rowKey(t *testing.T, tb *Table, r Row) (Key, error) {
	t.Helper()
	w := tb.Layout().Writer()
	write(w, r)
	if _, _, err := w.Row(); err != nil {
		t.Fatalf("writing %v: %v", r, err)
	}
	return w.Key()
}

func TestRowKey(t *testing.T) {
	tb := sampleTable()
	k, err := rowKey(t, tb, Row{int64(42), int64(7), int64(1), "x"})
	if err != nil {
		t.Fatal(err)
	}
	if k != KeyFromInt(42) {
		t.Errorf("RowKey = %d, want %d", k, KeyFromInt(42))
	}

	// Errors.
	if _, err := rowKey(t, &Table{Name: "x", Columns: []Column{{Name: "a", Type: Int64}}}, Row{int64(1)}); err == nil {
		t.Error("table without primary key should error")
	}
	if _, err := rowKey(t, tb, Row{}); err == nil {
		t.Error("short row should error")
	}
	str := &Table{Name: "s", Columns: []Column{{Name: "a", Type: String}}, PrimaryKey: "a"}
	if _, err := rowKey(t, str, Row{"abc"}); err == nil {
		t.Error("string primary key should error")
	}
}
