package fn

import (
	"fmt"

	"github.com/measures-sql/msql/internal/sqltypes"
	"github.com/measures-sql/msql/internal/vec"
)

// Batch kernels: typed column-at-a-time implementations of the hot
// scalar operators (comparisons, int/float arithmetic, MOD, date parts),
// registered per argument-kind signature. A kernel runs only when the executor has
// typed (non-boxed) columns whose kinds match the registered signature;
// anything else goes through the generic boxed path or the row-at-a-time
// fallback. Every kernel must agree bit-for-bit with the scalar operator
// it mirrors — the differential harness treats the row engine as the
// oracle — so NULL handling, overflow errors, and division-by-zero
// semantics below are copied from sqltypes, not reinvented.

// Kernel evaluates one operator over the selected rows of typed argument
// columns, writing results (or null bits) into out at the same indices.
type Kernel func(args []*vec.Col, sel []int, out *vec.Col) error

type kernelKey struct {
	name string
	sig  string
}

type kernelEntry struct {
	k   Kernel
	out sqltypes.Kind
}

var kernels = map[kernelKey]kernelEntry{}

func kindSig(kinds []sqltypes.Kind) string {
	b := make([]byte, len(kinds))
	for i, k := range kinds {
		b[i] = byte(k)
	}
	return string(b)
}

// RegisterKernel registers a batch kernel for name over the given
// argument kinds, producing out-kind results.
func RegisterKernel(name string, kinds []sqltypes.Kind, out sqltypes.Kind, k Kernel) {
	kernels[kernelKey{name, kindSig(kinds)}] = kernelEntry{k, out}
}

// LookupKernel returns the kernel for name over the given argument
// kinds and the kind of column it produces.
func LookupKernel(name string, kinds []sqltypes.Kind) (Kernel, sqltypes.Kind, bool) {
	e, ok := kernels[kernelKey{name, kindSig(kinds)}]
	return e.k, e.out, ok
}

// cmpOrd builds a comparison kernel over two same-layout columns whose
// values order with <, using get to pick the typed slice.
func cmpOrd[T int64 | float64 | string](get func(*vec.Col) []T, test func(int) bool) Kernel {
	return func(args []*vec.Col, sel []int, out *vec.Col) error {
		a, b := args[0], args[1]
		av, bv := get(a), get(b)
		for _, i := range sel {
			if a.Nulls.Get(i) || b.Nulls.Get(i) {
				out.Nulls.Set(i)
				continue
			}
			x, y := av[i], bv[i]
			c := 0
			if x < y {
				c = -1
			} else if x > y {
				c = 1
			}
			out.B[i] = test(c)
		}
		return nil
	}
}

// asFloats returns an accessor viewing a numeric column as float64,
// matching Value.AsFloat for cross-kind comparisons and float arithmetic.
func asFloats(c *vec.Col) func(int) float64 {
	if c.Kind == sqltypes.KindInt {
		is := c.I
		return func(i int) float64 { return float64(is[i]) }
	}
	fs := c.F
	return func(i int) float64 { return fs[i] }
}

// cmpNum builds a comparison kernel over mixed int/float columns via
// float promotion, exactly like sqltypes.Compare does.
func cmpNum(test func(int) bool) Kernel {
	return func(args []*vec.Col, sel []int, out *vec.Col) error {
		a, b := args[0], args[1]
		av, bv := asFloats(a), asFloats(b)
		for _, i := range sel {
			if a.Nulls.Get(i) || b.Nulls.Get(i) {
				out.Nulls.Set(i)
				continue
			}
			x, y := av(i), bv(i)
			c := 0
			if x < y {
				c = -1
			} else if x > y {
				c = 1
			}
			out.B[i] = test(c)
		}
		return nil
	}
}

// cmpBool compares two bool columns with false < true, matching
// sqltypes.Compare's b2i ordering.
func cmpBool(test func(int) bool) Kernel {
	return func(args []*vec.Col, sel []int, out *vec.Col) error {
		a, b := args[0], args[1]
		for _, i := range sel {
			if a.Nulls.Get(i) || b.Nulls.Get(i) {
				out.Nulls.Set(i)
				continue
			}
			x, y := 0, 0
			if a.B[i] {
				x = 1
			}
			if b.B[i] {
				y = 1
			}
			out.B[i] = test(x - y) // x-y is already the comparison result's sign
		}
		return nil
	}
}

// intArith builds a checked int64 arithmetic kernel; sym is the operator
// symbol used in the overflow error, which must match sqltypes.arith.
func intArith(op func(a, b int64) (int64, bool), sym string) Kernel {
	return func(args []*vec.Col, sel []int, out *vec.Col) error {
		a, b := args[0], args[1]
		for _, i := range sel {
			if a.Nulls.Get(i) || b.Nulls.Get(i) {
				out.Nulls.Set(i)
				continue
			}
			s, ok := op(a.I[i], b.I[i])
			if !ok {
				return fmt.Errorf("INTEGER overflow in %d %s %d", a.I[i], sym, b.I[i])
			}
			out.I[i] = s
		}
		return nil
	}
}

// floatArith builds a float arithmetic kernel over any numeric columns.
func floatArith(op func(x, y float64) float64) Kernel {
	return func(args []*vec.Col, sel []int, out *vec.Col) error {
		a, b := args[0], args[1]
		av, bv := asFloats(a), asFloats(b)
		for _, i := range sel {
			if a.Nulls.Get(i) || b.Nulls.Get(i) {
				out.Nulls.Set(i)
				continue
			}
			out.F[i] = op(av(i), bv(i))
		}
		return nil
	}
}

// divKernel mirrors sqltypes.Div: always DOUBLE, NULL on NULL operands
// and on division by zero.
func divKernel(args []*vec.Col, sel []int, out *vec.Col) error {
	a, b := args[0], args[1]
	av, bv := asFloats(a), asFloats(b)
	for _, i := range sel {
		if a.Nulls.Get(i) || b.Nulls.Get(i) {
			out.Nulls.Set(i)
			continue
		}
		den := bv(i)
		if den == 0 {
			out.Nulls.Set(i)
			continue
		}
		out.F[i] = av(i) / den
	}
	return nil
}

// modIntKernel mirrors the int path of sqltypes.Mod: NULL on zero
// divisor, otherwise truncated modulo.
func modIntKernel(args []*vec.Col, sel []int, out *vec.Col) error {
	a, b := args[0], args[1]
	for _, i := range sel {
		if a.Nulls.Get(i) || b.Nulls.Get(i) {
			out.Nulls.Set(i)
			continue
		}
		if b.I[i] == 0 {
			out.Nulls.Set(i)
			continue
		}
		out.I[i] = a.I[i] % b.I[i]
	}
	return nil
}

// modFloatKernel mirrors the float path of sqltypes.Mod, including the
// INTEGER-range error and the truncated-divisor zero guard.
func modFloatKernel(args []*vec.Col, sel []int, out *vec.Col) error {
	a, b := args[0], args[1]
	av, bv := asFloats(a), asFloats(b)
	for _, i := range sel {
		if a.Nulls.Get(i) || b.Nulls.Get(i) {
			out.Nulls.Set(i)
			continue
		}
		x, y := av(i), bv(i)
		if y == 0 {
			out.Nulls.Set(i)
			continue
		}
		if !sqltypes.InInt64Range(x) || !sqltypes.InInt64Range(y) {
			return fmt.Errorf("MOD: operand out of INTEGER range")
		}
		yi := int64(y)
		if yi == 0 {
			out.Nulls.Set(i)
			continue
		}
		out.F[i] = float64(int64(x) % yi)
	}
	return nil
}

// civilMaxDays bounds the dates civil converts: within ±2^32 days of the
// epoch (about ±11.7 million years) its arithmetic cannot overflow and
// agrees with Value.Time(). Dates beyond it go through the scalar
// itself, so the date-part kernels match it for every input.
const civilMaxDays = 1 << 32

// civil converts days since 1970-01-01 to a proleptic Gregorian year,
// month (1-12) and day (1-31) without going through time.Time, after
// Howard Hinnant's civil_from_days: shift to an era starting 0000-03-01
// so the leap day ends the year, then split into 400-year eras, years
// of the era, and March-based months.
func civil(days int64) (year, month, day int64) {
	z := days + 719468 // days from 0000-03-01 to 1970-01-01
	era := z / 146097
	if z < 0 && z%146097 != 0 {
		era-- // floor division
	}
	doe := z - era*146097                                  // [0, 146096]
	yoe := (doe - doe/1460 + doe/36524 - doe/146096) / 365 // [0, 399]
	doy := doe - (365*yoe + yoe/4 - yoe/100)               // [0, 365]
	mp := (5*doy + 2) / 153                                // [0, 11], March = 0
	day = doy - (153*mp+2)/5 + 1
	month = mp + 3
	if month > 12 {
		month -= 12
	}
	year = yoe + era*400
	if month <= 2 {
		year++
	}
	return year, month, day
}

// datePartKernel builds the DATE → INTEGER kernel of the datePart
// scalar name (YEAR, MONTH, ...); part computes it from the day number
// and its civil date.
func datePartKernel(name string, part func(days, y, m, d int64) int64) Kernel {
	return func(args []*vec.Col, sel []int, out *vec.Col) error {
		a := args[0]
		for _, i := range sel {
			if a.Nulls.Get(i) {
				out.Nulls.Set(i)
				continue
			}
			days := a.I[i]
			if days < -civilMaxDays || days > civilMaxDays {
				v, err := MustLookupScalar(name).Eval([]sqltypes.Value{sqltypes.NewDateDays(days)})
				if err != nil {
					return err
				}
				out.I[i] = v.I
				continue
			}
			y, m, d := civil(days)
			out.I[i] = part(days, y, m, d)
		}
		return nil
	}
}

func init() {
	const (
		kB = sqltypes.KindBool
		kI = sqltypes.KindInt
		kF = sqltypes.KindFloat
		kS = sqltypes.KindString
		kD = sqltypes.KindDate
	)
	sig := func(a, b sqltypes.Kind) []sqltypes.Kind { return []sqltypes.Kind{a, b} }
	intSlice := func(c *vec.Col) []int64 { return c.I }
	floatSlice := func(c *vec.Col) []float64 { return c.F }
	strSlice := func(c *vec.Col) []string { return c.S }

	cmps := []struct {
		name string
		test func(int) bool
	}{
		{"=", func(c int) bool { return c == 0 }},
		{"<>", func(c int) bool { return c != 0 }},
		{"<", func(c int) bool { return c < 0 }},
		{"<=", func(c int) bool { return c <= 0 }},
		{">", func(c int) bool { return c > 0 }},
		{">=", func(c int) bool { return c >= 0 }},
	}
	for _, cmp := range cmps {
		RegisterKernel(cmp.name, sig(kI, kI), kB, cmpOrd(intSlice, cmp.test))
		RegisterKernel(cmp.name, sig(kF, kF), kB, cmpOrd(floatSlice, cmp.test))
		RegisterKernel(cmp.name, sig(kI, kF), kB, cmpNum(cmp.test))
		RegisterKernel(cmp.name, sig(kF, kI), kB, cmpNum(cmp.test))
		RegisterKernel(cmp.name, sig(kS, kS), kB, cmpOrd(strSlice, cmp.test))
		RegisterKernel(cmp.name, sig(kD, kD), kB, cmpOrd(intSlice, cmp.test))
		RegisterKernel(cmp.name, sig(kB, kB), kB, cmpBool(cmp.test))
	}

	ints := []struct {
		name string
		op   func(a, b int64) (int64, bool)
	}{
		{"+", sqltypes.AddInt64},
		{"-", sqltypes.SubInt64},
		{"*", sqltypes.MulInt64},
	}
	floats := []struct {
		name string
		op   func(x, y float64) float64
	}{
		{"+", func(x, y float64) float64 { return x + y }},
		{"-", func(x, y float64) float64 { return x - y }},
		{"*", func(x, y float64) float64 { return x * y }},
	}
	for _, a := range ints {
		RegisterKernel(a.name, sig(kI, kI), kI, intArith(a.op, a.name))
	}
	for _, a := range floats {
		for _, s := range [][]sqltypes.Kind{sig(kF, kF), sig(kI, kF), sig(kF, kI)} {
			RegisterKernel(a.name, s, kF, floatArith(a.op))
		}
	}
	for _, s := range [][]sqltypes.Kind{sig(kI, kI), sig(kF, kF), sig(kI, kF), sig(kF, kI)} {
		RegisterKernel("/", s, kF, divKernel)
	}
	RegisterKernel("%", sig(kI, kI), kI, modIntKernel)

	// Date parts, mirroring registerDateFuncs. DAYOFWEEK: 1970-01-01 was
	// a Thursday (Weekday 4), so the weekday is (days+4) mod 7, floored.
	dateParts := []struct {
		name string
		part func(days, y, m, d int64) int64
	}{
		{"YEAR", func(_, y, _, _ int64) int64 { return y }},
		{"MONTH", func(_, _, m, _ int64) int64 { return m }},
		{"DAY", func(_, _, _, d int64) int64 { return d }},
		{"QUARTER", func(_, _, m, _ int64) int64 { return (m-1)/3 + 1 }},
		{"DAYOFWEEK", func(days, _, _, _ int64) int64 { return ((days+4)%7+7)%7 + 1 }},
	}
	for _, p := range dateParts {
		RegisterKernel(p.name, []sqltypes.Kind{kD}, kI, datePartKernel(p.name, p.part))
	}
	for _, s := range [][]sqltypes.Kind{sig(kF, kF), sig(kI, kF), sig(kF, kI)} {
		RegisterKernel("%", s, kF, modFloatKernel)
	}
}
