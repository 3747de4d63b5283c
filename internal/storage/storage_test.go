package storage

import (
	"testing"

	"github.com/measures-sql/msql/internal/sqltypes"
)

func newT(t *testing.T) *Table {
	t.Helper()
	return NewTable("t",
		[]string{"a", "b", "d"},
		[]sqltypes.Type{{Kind: sqltypes.KindInt}, {Kind: sqltypes.KindFloat}, {Kind: sqltypes.KindDate}})
}

func TestInsertAndScan(t *testing.T) {
	tbl := newT(t)
	err := tbl.Insert([][]sqltypes.Value{
		{sqltypes.NewInt(1), sqltypes.NewInt(2), sqltypes.NewString("2024-01-01")},
		{sqltypes.Null(sqltypes.KindUnknown), sqltypes.NewFloat(1.5), sqltypes.NewDate(2024, 2, 3)},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := tbl.Rows()
	if len(rows) != 2 || tbl.NumRows() != 2 {
		t.Fatalf("rows=%d", len(rows))
	}
	// INT 2 coerced to FLOAT in column b; string coerced to DATE.
	if rows[0][1].K != sqltypes.KindFloat || rows[0][1].Float() != 2 {
		t.Errorf("coercion to float failed: %v", rows[0][1])
	}
	if rows[0][2].K != sqltypes.KindDate || rows[0][2].String() != "2024-01-01" {
		t.Errorf("coercion to date failed: %v", rows[0][2])
	}
	if !rows[1][0].Null || rows[1][0].K != sqltypes.KindInt {
		t.Errorf("null retyping failed: %v", rows[1][0])
	}
}

func TestInsertErrors(t *testing.T) {
	tbl := newT(t)
	// Wrong arity.
	if err := tbl.Insert([][]sqltypes.Value{{sqltypes.NewInt(1)}}); err == nil {
		t.Error("short row should fail")
	}
	// Wrong type (string into int).
	err := tbl.Insert([][]sqltypes.Value{
		{sqltypes.NewString("x"), sqltypes.NewFloat(1), sqltypes.NewDate(2024, 1, 1)},
	})
	if err == nil {
		t.Error("string into INTEGER should fail")
	}
	// Non-integral float into int.
	err = tbl.Insert([][]sqltypes.Value{
		{sqltypes.NewFloat(1.5), sqltypes.NewFloat(1), sqltypes.NewDate(2024, 1, 1)},
	})
	if err == nil {
		t.Error("1.5 into INTEGER should fail")
	}
	// All-or-nothing: nothing inserted by the failed batches.
	if tbl.NumRows() != 0 {
		t.Errorf("failed inserts must not leave rows, got %d", tbl.NumRows())
	}
	// Integral float is fine.
	err = tbl.Insert([][]sqltypes.Value{
		{sqltypes.NewFloat(2), sqltypes.NewFloat(1), sqltypes.NewDate(2024, 1, 1)},
	})
	if err != nil || tbl.Rows()[0][0].I != 2 {
		t.Errorf("integral float insert: %v", err)
	}
}

func TestSnapshotStability(t *testing.T) {
	tbl := newT(t)
	seed := [][]sqltypes.Value{{sqltypes.NewInt(1), sqltypes.NewFloat(1), sqltypes.NewDate(2024, 1, 1)}}
	if err := tbl.Insert(seed); err != nil {
		t.Fatal(err)
	}
	snap := tbl.Rows()
	if err := tbl.Insert(seed); err != nil {
		t.Fatal(err)
	}
	if len(snap) != 1 {
		t.Errorf("snapshot grew after later insert: %d", len(snap))
	}
	tbl.Truncate()
	if tbl.NumRows() != 0 {
		t.Error("truncate failed")
	}
	if len(snap) != 1 {
		t.Error("snapshot must survive truncate")
	}
}
