package vec

import (
	"testing"

	"github.com/measures-sql/msql/internal/sqltypes"
)

func TestBitmap(t *testing.T) {
	b := NewBitmap(130)
	for _, i := range []int{0, 63, 64, 127, 128, 129} {
		if b.Get(i) {
			t.Fatalf("bit %d set in fresh bitmap", i)
		}
		b.Set(i)
		if !b.Get(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
		b.Clear(i)
		if b.Get(i) {
			t.Fatalf("bit %d still set after Clear", i)
		}
	}
}

// TestColRoundTrip checks that every kind of value — typed, typed NULL,
// and bare NULL — boxes back out of a column bit-for-bit.
func TestColRoundTrip(t *testing.T) {
	vals := []sqltypes.Value{
		sqltypes.NewInt(42),
		sqltypes.Null(sqltypes.KindInt),
		sqltypes.NewInt(-7),
	}
	c := NewCol(sqltypes.KindInt, len(vals))
	for i, v := range vals {
		c.Set(i, v)
	}
	if c.Boxed() {
		t.Fatal("int column with typed NULLs should stay typed")
	}
	for i, want := range vals {
		if got := c.Value(i); got != want {
			t.Fatalf("row %d: got %#v want %#v", i, got, want)
		}
	}
}

// TestColPromotion: a value that does not fit the static kind (here a
// bare NULL of KindUnknown in an int column) must promote the column and
// preserve every value exactly, including the ones stored before.
func TestColPromotion(t *testing.T) {
	c := NewCol(sqltypes.KindInt, 3)
	c.Set(0, sqltypes.NewInt(1))
	c.Set(1, sqltypes.Null(sqltypes.KindUnknown)) // promotes
	c.Set(2, sqltypes.NewInt(3))
	if !c.Boxed() {
		t.Fatal("column should have promoted to boxed")
	}
	want := []sqltypes.Value{
		sqltypes.NewInt(1),
		sqltypes.Null(sqltypes.KindUnknown),
		sqltypes.NewInt(3),
	}
	for i, w := range want {
		if got := c.Value(i); got != w {
			t.Fatalf("row %d: got %#v want %#v", i, got, w)
		}
	}
}

func TestBuildColTypedAndPromoted(t *testing.T) {
	rows := [][]sqltypes.Value{
		{sqltypes.NewString("a"), sqltypes.NewFloat(1.5)},
		{sqltypes.Null(sqltypes.KindString), sqltypes.NewFloat(2.5)},
		{sqltypes.NewString("c"), sqltypes.NewInt(9)}, // int in a float column
	}
	s := BuildCol(rows, 0, sqltypes.KindString)
	if s.Boxed() {
		t.Fatal("string column should stay typed")
	}
	f := BuildCol(rows, 1, sqltypes.KindFloat)
	if !f.Boxed() {
		t.Fatal("float column holding an int value should promote")
	}
	for r := range rows {
		if got := s.Value(r); got != rows[r][0] {
			t.Fatalf("col 0 row %d: got %#v want %#v", r, got, rows[r][0])
		}
		if got := f.Value(r); got != rows[r][1] {
			t.Fatalf("col 1 row %d: got %#v want %#v", r, got, rows[r][1])
		}
	}
}

func TestUnknownKindStartsBoxed(t *testing.T) {
	c := NewCol(sqltypes.KindUnknown, 2)
	if !c.Boxed() {
		t.Fatal("unknown-kind column must start boxed")
	}
	c.SetNull(0)
	if got, want := c.Value(0), sqltypes.Null(sqltypes.KindUnknown); got != want {
		t.Fatalf("got %#v want %#v", got, want)
	}
}

func TestBatchFromRows(t *testing.T) {
	rows := [][]sqltypes.Value{
		{sqltypes.NewInt(1), sqltypes.NewBool(true)},
		{sqltypes.NewInt(2), sqltypes.Null(sqltypes.KindBool)},
	}
	b := FromRows(rows, []sqltypes.Kind{sqltypes.KindInt, sqltypes.KindBool})
	for r := range rows {
		got := b.Row(r)
		for j := range rows[r] {
			if got[j] != rows[r][j] {
				t.Fatalf("row %d col %d: got %#v want %#v", r, j, got[j], rows[r][j])
			}
		}
	}
}

// TestColFill: Fill writes only the selected rows; a typed NULL stays
// typed, and a value of another kind promotes the column like Set.
func TestColFill(t *testing.T) {
	c := NewCol(sqltypes.KindInt, 4)
	c.Fill([]int{1, 3}, sqltypes.NewInt(7))
	if c.Boxed() || c.Value(1) != sqltypes.NewInt(7) || c.Value(3) != sqltypes.NewInt(7) || c.Value(0) != sqltypes.NewInt(0) {
		t.Fatalf("typed fill: %v %v %v", c.Value(0), c.Value(1), c.Value(3))
	}
	c.Fill([]int{0}, sqltypes.Null(sqltypes.KindInt))
	if c.Boxed() || c.Value(0) != sqltypes.Null(sqltypes.KindInt) {
		t.Fatalf("typed NULL fill: boxed=%v %#v", c.Boxed(), c.Value(0))
	}
	c.Fill([]int{2}, sqltypes.Null(sqltypes.KindUnknown))
	if !c.Boxed() || c.Value(2) != sqltypes.Null(sqltypes.KindUnknown) || c.Value(1) != sqltypes.NewInt(7) {
		t.Fatalf("misfit fill must promote and keep earlier rows: %#v %#v", c.Value(2), c.Value(1))
	}
	if c.True(1) || c.False(1) || !oneRowCol(sqltypes.NewBool(false)).False(0) {
		t.Fatal("True/False must match Value.IsTrue/IsFalse")
	}
}

// oneRowCol is a one-row column holding v.
func oneRowCol(v sqltypes.Value) *Col {
	c := NewCol(v.K, 1)
	c.Set(0, v)
	return c
}
