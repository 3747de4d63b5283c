package fn

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/measures-sql/msql/internal/sqltypes"
	"github.com/measures-sql/msql/internal/vec"
)

// randValue returns a random value of the given kind, NULL ~25% of the
// time. Magnitudes are kept small so arithmetic never overflows — the
// sweep checks agreement on the happy path; overflow has its own test.
func randValue(rng *rand.Rand, kind sqltypes.Kind) sqltypes.Value {
	if rng.Intn(4) == 0 {
		return sqltypes.Null(kind)
	}
	switch kind {
	case sqltypes.KindBool:
		return sqltypes.NewBool(rng.Intn(2) == 0)
	case sqltypes.KindInt:
		return sqltypes.NewInt(int64(rng.Intn(201) - 100))
	case sqltypes.KindFloat:
		return sqltypes.NewFloat(float64(rng.Intn(2001)-1000) / 8)
	case sqltypes.KindString:
		return sqltypes.NewString(strings.Repeat("ab", rng.Intn(3)) + string(rune('a'+rng.Intn(4))))
	case sqltypes.KindDate:
		return sqltypes.NewDateDays(int64(rng.Intn(1000)))
	default:
		return sqltypes.Null(sqltypes.KindUnknown)
	}
}

// TestKernelsMatchScalars sweeps every registered kernel signature with
// random columns (including NULLs) and asserts the kernel output equals
// the row engine's semantics: strict NULL short-circuit, then the scalar
// Eval, value-exact.
func TestKernelsMatchScalars(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n = 257 // not a multiple of 64, to exercise bitmap tails
	for key, entry := range kernels {
		sc, ok := LookupScalar(key.name)
		if !ok {
			t.Fatalf("kernel %q has no scalar twin", key.name)
		}
		kinds := make([]sqltypes.Kind, len(key.sig))
		for i := range key.sig {
			kinds[i] = sqltypes.Kind(key.sig[i])
		}
		rows := make([][]sqltypes.Value, n)
		for r := range rows {
			row := make([]sqltypes.Value, len(kinds))
			for j, k := range kinds {
				row[j] = randValue(rng, k)
			}
			rows[r] = row
		}
		cols := make([]*vec.Col, len(kinds))
		for j, k := range kinds {
			cols[j] = vec.BuildCol(rows, j, k)
			if cols[j].Boxed() {
				t.Fatalf("%s%v: arg column %d unexpectedly boxed", key.name, kinds, j)
			}
		}
		sel := make([]int, n)
		for i := range sel {
			sel[i] = i
		}
		out := vec.NewCol(entry.out, n)
		if err := entry.k(cols, sel, out); err != nil {
			t.Fatalf("%s%v: kernel error: %v", key.name, kinds, err)
		}
		for _, i := range sel {
			args := rows[i]
			var want sqltypes.Value
			anyNull := false
			for _, a := range args {
				if a.Null {
					anyNull = true
				}
			}
			if sc.Strict && anyNull {
				want = sqltypes.Null(entry.out)
			} else {
				var err error
				want, err = sc.Eval(args)
				if err != nil {
					t.Fatalf("%s%v row %d: scalar error: %v", key.name, kinds, i, err)
				}
			}
			if got := out.Value(i); got != want {
				t.Fatalf("%s%v row %d args %v: kernel %#v, scalar %#v",
					key.name, kinds, i, args, got, want)
			}
		}
	}
}

func intCols(a, b []sqltypes.Value) []*vec.Col {
	rows := make([][]sqltypes.Value, len(a))
	for i := range a {
		rows[i] = []sqltypes.Value{a[i], b[i]}
	}
	return []*vec.Col{
		vec.BuildCol(rows, 0, sqltypes.KindInt),
		vec.BuildCol(rows, 1, sqltypes.KindInt),
	}
}

// TestKernelIntOverflow: the checked int kernels must surface the exact
// sqltypes overflow error, and only for selected rows.
func TestKernelIntOverflow(t *testing.T) {
	k, out, ok := LookupKernel("+", []sqltypes.Kind{sqltypes.KindInt, sqltypes.KindInt})
	if !ok {
		t.Fatal("no int + kernel")
	}
	cols := intCols(
		[]sqltypes.Value{sqltypes.NewInt(1), sqltypes.NewInt(math.MaxInt64)},
		[]sqltypes.Value{sqltypes.NewInt(2), sqltypes.NewInt(1)},
	)
	res := vec.NewCol(out, 2)
	err := k(cols, []int{0, 1}, res)
	if err == nil {
		t.Fatal("expected overflow error")
	}
	if want := "INTEGER overflow in 9223372036854775807 + 1"; err.Error() != want {
		t.Fatalf("error %q, want %q", err, want)
	}
	// The overflowing row deselected: no error.
	if err := k(cols, []int{0}, vec.NewCol(out, 2)); err != nil {
		t.Fatalf("unexpected error with overflow row unselected: %v", err)
	}
}

// TestKernelNullPropagation: NULL in either operand yields NULL without
// evaluating the operation (division by zero on a NULL row must not
// matter).
func TestKernelNullPropagation(t *testing.T) {
	k, out, ok := LookupKernel("/", []sqltypes.Kind{sqltypes.KindInt, sqltypes.KindInt})
	if !ok {
		t.Fatal("no int / kernel")
	}
	cols := intCols(
		[]sqltypes.Value{sqltypes.NewInt(10), sqltypes.Null(sqltypes.KindInt), sqltypes.NewInt(10)},
		[]sqltypes.Value{sqltypes.Null(sqltypes.KindInt), sqltypes.NewInt(0), sqltypes.NewInt(0)},
	)
	res := vec.NewCol(out, 3)
	if err := k(cols, []int{0, 1, 2}, res); err != nil {
		t.Fatalf("kernel error: %v", err)
	}
	for i := 0; i < 3; i++ {
		if got, want := res.Value(i), sqltypes.Null(sqltypes.KindFloat); got != want {
			t.Fatalf("row %d: got %#v want %#v", i, got, want)
		}
	}
}

// TestKernelEmptyAndBoundarySelections runs a kernel over selection
// vectors of size 0, 1023, 1024, and 1025 (batch-boundary sizes) and
// verifies results only at selected rows.
func TestKernelEmptyAndBoundarySelections(t *testing.T) {
	k, out, ok := LookupKernel("<", []sqltypes.Kind{sqltypes.KindInt, sqltypes.KindInt})
	if !ok {
		t.Fatal("no int < kernel")
	}
	const n = 1025
	a := make([]sqltypes.Value, n)
	b := make([]sqltypes.Value, n)
	for i := range a {
		a[i] = sqltypes.NewInt(int64(i))
		b[i] = sqltypes.NewInt(512)
	}
	cols := intCols(a, b)
	for _, size := range []int{0, 1023, 1024, 1025} {
		sel := make([]int, size)
		for i := range sel {
			sel[i] = i
		}
		res := vec.NewCol(out, n)
		if err := k(cols, sel, res); err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		for _, i := range sel {
			want := sqltypes.NewBool(int64(i) < 512)
			if got := res.Value(i); got != want {
				t.Fatalf("size %d row %d: got %#v want %#v", size, i, got, want)
			}
		}
	}
}

// TestKernelModMatchesScalar pins the quirky MOD cases: zero divisors
// and the float path's truncated-divisor guard (MOD(1.0, 0.5)).
func TestKernelModMatchesScalar(t *testing.T) {
	ff := []sqltypes.Kind{sqltypes.KindFloat, sqltypes.KindFloat}
	k, out, ok := LookupKernel("%", ff)
	if !ok {
		t.Fatal("no float % kernel")
	}
	rows := [][]sqltypes.Value{
		{sqltypes.NewFloat(1.0), sqltypes.NewFloat(0.5)}, // int64(0.5) == 0 → NULL
		{sqltypes.NewFloat(7.0), sqltypes.NewFloat(0)},   // zero divisor → NULL
		{sqltypes.NewFloat(7.5), sqltypes.NewFloat(2)},
	}
	cols := []*vec.Col{
		vec.BuildCol(rows, 0, sqltypes.KindFloat),
		vec.BuildCol(rows, 1, sqltypes.KindFloat),
	}
	res := vec.NewCol(out, len(rows))
	if err := k(cols, []int{0, 1, 2}, res); err != nil {
		t.Fatalf("kernel error: %v", err)
	}
	for i, row := range rows {
		want, err := sqltypes.Mod(row[0], row[1])
		if err != nil {
			t.Fatalf("row %d: scalar error: %v", i, err)
		}
		if got := res.Value(i); got != want {
			t.Fatalf("row %d: got %#v want %#v", i, got, want)
		}
	}
}

// TestDatePartKernelsSweep compares every date-part kernel with its
// scalar on each day of the years 1149-2791 (every leap day, both
// century rules and every year boundary in that span), on a sparse
// sweep out to ±270 000 years, on both sides of the civil-arithmetic
// bound, and at the extremes of the day range.
func TestDatePartKernelsSweep(t *testing.T) {
	var days []int64
	for d := int64(-300_000); d <= 300_000; d++ {
		days = append(days, d)
	}
	for d := int64(-100_000_000); d <= 100_000_000; d += 997 {
		days = append(days, d)
	}
	for _, d := range []int64{civilMaxDays - 1, civilMaxDays, civilMaxDays + 1, math.MaxInt64 / 86400, math.MaxInt64} {
		days = append(days, d, -d)
	}
	days = append(days, math.MinInt64)
	col := vec.NewCol(sqltypes.KindDate, len(days))
	sel := make([]int, len(days))
	for i, d := range days {
		col.I[i] = d
		sel[i] = i
	}
	for _, name := range []string{"YEAR", "MONTH", "DAY", "QUARTER", "DAYOFWEEK"} {
		kern, outKind, ok := LookupKernel(name, []sqltypes.Kind{sqltypes.KindDate})
		if !ok || outKind != sqltypes.KindInt {
			t.Fatalf("%s: no DATE -> INTEGER kernel", name)
		}
		out := vec.NewCol(sqltypes.KindInt, len(days))
		if err := kern([]*vec.Col{col}, sel, out); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sc := MustLookupScalar(name)
		for i, d := range days {
			want, err := sc.Eval([]sqltypes.Value{sqltypes.NewDateDays(d)})
			if err != nil {
				t.Fatalf("%s(%d): scalar: %v", name, d, err)
			}
			if got := out.Value(i); got != want {
				t.Fatalf("%s(%d days): kernel %v, scalar %v", name, d, got, want)
			}
		}
	}
}
