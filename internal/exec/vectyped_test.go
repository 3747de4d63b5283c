package exec

import (
	"context"
	"math"
	"testing"
	"time"

	"github.com/measures-sql/msql/internal/plan"
	"github.com/measures-sql/msql/internal/sqltypes"
	"github.com/measures-sql/msql/internal/vec"
)

// Unit tests for the typed loops of the vectorized boolean, IS [NOT]
// DISTINCT FROM and broadcast nodes. Each case compiles one expression,
// evaluates it over a batch, and compares every selected row bit for bit
// with the row evaluator; it also checks which loop ran, because a typed
// loop that silently fell back to the boxed one would pass the value
// check while losing the speed it exists for.

var typedKinds = []sqltypes.Kind{
	sqltypes.KindBool,   // 0 b
	sqltypes.KindBool,   // 1 b2
	sqltypes.KindBool,   // 2 bx: holds bare NULLs, so its column is boxed
	sqltypes.KindInt,    // 3 i
	sqltypes.KindFloat,  // 4 f
	sqltypes.KindFloat,  // 5 f2
	sqltypes.KindString, // 6 s
	sqltypes.KindDate,   // 7 d
}

// typedRows is a batch whose columns mix values, typed NULLs, bare
// (KindUnknown) NULLs, NaN and both signed zeros.
func typedRows() []Row {
	bools := []sqltypes.Value{sqltypes.NewBool(true), sqltypes.NewBool(false), sqltypes.Null(sqltypes.KindBool)}
	floats := []sqltypes.Value{
		sqltypes.NewFloat(1.5), sqltypes.NewFloat(math.Copysign(0, -1)), sqltypes.NewFloat(0),
		sqltypes.NewFloat(math.NaN()), sqltypes.Null(sqltypes.KindFloat),
	}
	strs := []sqltypes.Value{sqltypes.NewString("x"), sqltypes.NewString(""), sqltypes.Null(sqltypes.KindString), sqltypes.NewString("y")}
	var rows []Row
	for r := 0; r < 90; r++ {
		bx := bools[(r/2)%3]
		if r%4 == 0 {
			bx = sqltypes.Null(sqltypes.KindUnknown)
		}
		i := sqltypes.NewInt(int64(r % 5))
		if r%7 == 0 {
			i = sqltypes.Null(sqltypes.KindInt)
		}
		d := sqltypes.NewDateDays(int64(r%6) - 3)
		if r%8 == 0 {
			d = sqltypes.Null(sqltypes.KindDate)
		}
		rows = append(rows, Row{
			bools[r%3], bools[(r/3)%3], bx, i,
			floats[r%5], floats[(r/5)%5], strs[r%4], d,
		})
	}
	return rows
}

func tcol(i int) *plan.ColRef {
	return &plan.ColRef{Index: i, Typ: sqltypes.Type{Kind: typedKinds[i]}}
}

func lit(v sqltypes.Value) *plan.Lit {
	return &plan.Lit{Val: v}
}

// evalVec evaluates e over rows at sel with the vectorized tree on rt.
func evalVec(rt *runtime, e plan.Expr, kinds []sqltypes.Kind, rows []Row, sel []int) (*vec.Col, *vecBatch, error) {
	vb := newVecBatch(rows, kinds)
	c, err := vecCompile(e, len(kinds)).eval(rt, vb, sel)
	return c, vb, err
}

// checkVecVsRow requires the vectorized result of e at every selected
// row to be identical to the row evaluator's.
func checkVecVsRow(t *testing.T, rt *runtime, e plan.Expr, kinds []sqltypes.Kind, rows []Row, sel []int) *vecBatch {
	t.Helper()
	c, vb, err := evalVec(rt, e, kinds, rows, sel)
	if err != nil {
		t.Fatalf("vectorized: %v", err)
	}
	for _, i := range sel {
		want, err := rt.eval(e, rows[i])
		if err != nil {
			t.Fatalf("row %d: row evaluator: %v", i, err)
		}
		if got := c.Value(i); got != want {
			t.Fatalf("row %d (%v): vectorized %#v, row engine %#v", i, rows[i], got, want)
		}
	}
	return vb
}

func vecRuntime(outer ...Row) *runtime {
	rt := newRuntime(context.Background(), &Settings{MemoizeSubqueries: true, Vectorized: true})
	rt.outer = outer
	return rt
}

func sparseSel(n, step int) []int {
	var sel []int
	for i := 0; i < n; i += step {
		sel = append(sel, i)
	}
	return sel
}

// TestVecTypedPathsMatchRowEngine covers typed versus boxed inputs,
// typed versus bare NULLs, and full, sparse and empty selections.
func TestVecTypedPathsMatchRowEngine(t *testing.T) {
	nullLit := lit(sqltypes.Null(sqltypes.KindUnknown))
	isd := func(l, r plan.Expr, neg bool) plan.Expr { return &plan.IsDistinct{L: l, R: r, Neg: neg} }
	cases := []struct {
		name  string
		e     plan.Expr
		typed bool // every node runs its typed loop
	}{
		{"and", &plan.And{L: tcol(0), R: tcol(1)}, true},
		{"or", &plan.Or{L: tcol(0), R: tcol(1)}, true},
		{"not", &plan.Not{X: tcol(0)}, true},
		{"is null", &plan.IsNull{X: tcol(3)}, true},
		{"is not null boxed", &plan.IsNull{X: tcol(2), Neg: true}, true},
		{"and boxed right", &plan.And{L: tcol(0), R: tcol(2)}, false},
		{"or boxed left", &plan.Or{L: tcol(2), R: tcol(1)}, false},
		{"not boxed", &plan.Not{X: tcol(2)}, false},
		{"and bare null literal", &plan.And{L: nullLit, R: tcol(0)}, false},
		{"bool not distinct", isd(tcol(0), tcol(1), true), true},
		{"bool distinct", isd(tcol(0), tcol(1), false), true},
		{"int not distinct literal", isd(tcol(3), lit(sqltypes.NewInt(2)), true), true},
		{"int distinct typed null literal", isd(tcol(3), lit(sqltypes.Null(sqltypes.KindInt)), false), true},
		{"int not distinct bare null", isd(tcol(3), nullLit, true), false},
		{"float nan and signed zeros", isd(tcol(4), tcol(5), true), true},
		{"float distinct", isd(tcol(4), tcol(5), false), true},
		{"string not distinct literal", isd(tcol(6), lit(sqltypes.NewString("x")), true), true},
		{"date not distinct", isd(tcol(7), lit(sqltypes.NewDateDays(-1)), true), true},
		{"int vs float", isd(tcol(3), tcol(4), true), false},
		{"boxed bool not distinct", isd(tcol(2), tcol(0), true), false},
		{"nested", &plan.Or{
			L: &plan.And{L: isd(tcol(6), lit(sqltypes.NewString("")), true), R: &plan.Not{X: tcol(1)}},
			R: &plan.IsNull{X: tcol(7)},
		}, true},
	}
	rows := typedRows()
	sels := map[string][]int{
		"full":   batchIota[:len(rows)],
		"sparse": sparseSel(len(rows), 3),
		"empty":  nil,
	}
	for _, tc := range cases {
		for sname, sel := range sels {
			vb := checkVecVsRow(t, vecRuntime(), tc.e, typedKinds, rows, sel)
			switch {
			case len(sel) == 0:
				if vb.kernelRows != 0 || vb.fallbackRows != 0 {
					t.Errorf("%s/%s: empty selection counted kernel=%d fallback=%d", tc.name, sname, vb.kernelRows, vb.fallbackRows)
				}
			case tc.typed && (vb.fallbackRows != 0 || vb.kernelRows == 0):
				t.Errorf("%s/%s: typed inputs took the boxed loop (kernel=%d fallback=%d)", tc.name, sname, vb.kernelRows, vb.fallbackRows)
			case !tc.typed && vb.fallbackRows == 0:
				t.Errorf("%s/%s: boxed inputs not counted as fallback (kernel=%d)", tc.name, sname, vb.kernelRows)
			}
		}
	}
}

// TestVecIsDistinctTruthTable pins IS [NOT] DISTINCT FROM against fixed
// answers rather than the row engine, so an inversion shared by both
// paths cannot pass.
func TestVecIsDistinctTruthTable(t *testing.T) {
	x, y := sqltypes.NewString("x"), sqltypes.NewString("y")
	null := sqltypes.Null(sqltypes.KindString)
	kinds := []sqltypes.Kind{sqltypes.KindString, sqltypes.KindString}
	rows := []Row{{x, x}, {x, y}, {x, null}, {null, y}, {null, null}}
	notDistinct := []bool{true, false, false, false, true}
	for _, neg := range []bool{true, false} {
		e := &plan.IsDistinct{
			L:   &plan.ColRef{Index: 0, Typ: sqltypes.Type{Kind: sqltypes.KindString}},
			R:   &plan.ColRef{Index: 1, Typ: sqltypes.Type{Kind: sqltypes.KindString}},
			Neg: neg,
		}
		c, vb, err := evalVec(vecRuntime(), e, kinds, rows, batchIota[:len(rows)])
		if err != nil {
			t.Fatal(err)
		}
		if vb.fallbackRows != 0 {
			t.Fatalf("neg=%v: typed strings took the boxed loop", neg)
		}
		for i, nd := range notDistinct {
			if got, want := c.Value(i), sqltypes.NewBool(nd == neg); got != want {
				t.Errorf("neg=%v row %v: got %v want %v", neg, rows[i], got, want)
			}
		}
	}
}

// TestVecShortCircuitTyped: the right operand of AND/OR overflows on
// exactly the rows the left operand already decided, so neither engine
// may evaluate it there; the typed loops must still combine the rest.
func TestVecShortCircuitTyped(t *testing.T) {
	i := tcol(3)
	overflows := cmp(">", &plan.Call{Name: "*", Typ: intT(), Args: []plan.Expr{i, intLit(math.MaxInt64)}}, intLit(0))
	rows := typedRows() // i in 0..4 or NULL: i*MaxInt64 overflows for i >= 2
	for _, e := range []plan.Expr{
		&plan.And{L: cmp("<", i, intLit(2)), R: overflows},
		&plan.Or{L: cmp(">=", i, intLit(2)), R: overflows},
	} {
		vb := checkVecVsRow(t, vecRuntime(), e, typedKinds, rows, batchIota[:len(rows)])
		if vb.fallbackRows != 0 {
			t.Errorf("%T: typed operands took the boxed loop", e)
		}
	}
	// The same right operand under a left side that does not decide the
	// overflowing rows errors in both engines.
	e := &plan.And{L: cmp(">=", i, intLit(0)), R: overflows}
	if _, _, err := evalVec(vecRuntime(), e, typedKinds, rows, batchIota[:len(rows)]); err == nil {
		t.Fatal("vectorized AND: want the overflow error")
	}
}

// TestVecCorrRefBroadcast: a correlated reference evaluates once per
// batch into a typed column, and errors (here: no outer frame) exactly
// when the row engine would, that is only for a non-empty selection.
func TestVecCorrRefBroadcast(t *testing.T) {
	corr := &plan.CorrRef{Levels: 1, Index: 0, Typ: sqltypes.Type{Kind: sqltypes.KindString}}
	e := &plan.IsDistinct{L: tcol(6), R: corr, Neg: true}
	rows := typedRows()
	all := batchIota[:len(rows)]

	// With an outer frame: typed end to end, values match the row engine.
	for _, outer := range []Row{{sqltypes.NewString("x")}, {sqltypes.Null(sqltypes.KindString)}} {
		vb := checkVecVsRow(t, vecRuntime(outer), e, typedKinds, rows, all)
		if vb.fallbackRows != 0 {
			t.Errorf("outer %v: broadcast correlated ref left the typed path", outer)
		}
	}
	// A bare NULL outer value does not fit the typed column: it promotes
	// and the boxed loop still agrees with the row engine.
	checkVecVsRow(t, vecRuntime(Row{sqltypes.Null(sqltypes.KindUnknown)}), e, typedKinds, rows, all)

	// Without one: an empty selection succeeds, a non-empty one errors.
	if _, _, err := evalVec(vecRuntime(), e, typedKinds, rows, nil); err != nil {
		t.Fatalf("empty selection: %v", err)
	}
	if _, _, err := evalVec(vecRuntime(), e, typedKinds, rows, all[:1]); err == nil {
		t.Fatal("non-empty selection: want the missing-frame error")
	}
	// Under an AND whose left side is FALSE everywhere, the reference
	// never runs, in either engine.
	guarded := &plan.And{L: lit(sqltypes.NewBool(false)), R: e}
	checkVecVsRow(t, vecRuntime(), guarded, typedKinds, rows, all)
}

// TestVecConstReuseKeepsSignedZero: the per-runtime broadcast reuse must
// not hand a -0 column to a +0 evaluation (equal as float64s).
func TestVecConstReuseKeepsSignedZero(t *testing.T) {
	kinds := []sqltypes.Kind{sqltypes.KindFloat}
	rows := []Row{{sqltypes.NewFloat(1)}, {sqltypes.NewFloat(2)}}
	corr := &plan.CorrRef{Levels: 1, Index: 0, Typ: sqltypes.Type{Kind: sqltypes.KindFloat}}
	rt := vecRuntime()
	ve := vecCompile(corr, 1)
	for _, z := range []float64{math.Copysign(0, -1), 0} {
		rt.outer = []Row{{sqltypes.NewFloat(z)}}
		c, err := ve.eval(rt, newVecBatch(rows, kinds), batchIota[:2])
		if err != nil {
			t.Fatal(err)
		}
		if got := c.Value(1).Float(); math.Signbit(got) != math.Signbit(z) {
			t.Fatalf("broadcast of %v returned %v", z, got)
		}
	}
}

// TestVecDatePartKernels runs the date-part functions through the
// vectorized path on dates around the epoch, leap days, century rules
// and year boundaries, and requires the typed kernel to run and agree
// with the scalar the row engine calls.
func TestVecDatePartKernels(t *testing.T) {
	days := func(y int, m time.Month, d int) sqltypes.Value { return sqltypes.NewDate(y, m, d) }
	dates := []sqltypes.Value{
		days(1969, 12, 31), days(1970, 1, 1), days(1970, 1, 2), days(1960, 6, 15),
		days(1900, 2, 28), days(1900, 3, 1), days(2000, 2, 29), days(2000, 3, 1),
		days(1600, 2, 29), days(2024, 2, 29), days(2023, 12, 31), days(2024, 1, 1),
		days(1, 1, 1), days(1582, 10, 15), days(9999, 12, 31), days(-400, 3, 1),
		sqltypes.NewDateDays(1 << 40), sqltypes.NewDateDays(-(1 << 40)),
		sqltypes.Null(sqltypes.KindDate),
	}
	rows := make([]Row, len(dates))
	for i, d := range dates {
		rows[i] = Row{d}
	}
	kinds := []sqltypes.Kind{sqltypes.KindDate}
	for _, name := range []string{"YEAR", "MONTH", "DAY", "QUARTER", "DAYOFWEEK"} {
		e := &plan.Call{Name: name, Typ: intT(), Args: []plan.Expr{&plan.ColRef{Index: 0, Typ: sqltypes.Type{Kind: sqltypes.KindDate}}}}
		if _, ok := vecCompile(e, 1).(*vecKernel); !ok {
			t.Fatalf("%s does not compile to a kernel", name)
		}
		vb := checkVecVsRow(t, vecRuntime(), e, kinds, rows, batchIota[:len(rows)])
		if vb.fallbackRows != 0 || vb.kernelRows != int64(len(rows)) {
			t.Errorf("%s: kernel=%d fallback=%d, want the typed kernel on all %d rows",
				name, vb.kernelRows, vb.fallbackRows, len(rows))
		}
	}
}

// TestVecBoxedKernelCountsAsFallback: a kernel whose argument comes back
// boxed runs its boxed element-wise loop, which must be reported as
// fallback, not kernel, work.
func TestVecBoxedKernelCountsAsFallback(t *testing.T) {
	rows := typedRows()
	e := cmp("=", tcol(2), tcol(0)) // BOOLEAN = BOOLEAN has a kernel; column 2 is boxed
	vb := checkVecVsRow(t, vecRuntime(), e, typedKinds, rows, batchIota[:len(rows)])
	if vb.fallbackRows == 0 {
		t.Fatalf("boxed kernel loop counted as kernel=%d fallback=0", vb.kernelRows)
	}
}
