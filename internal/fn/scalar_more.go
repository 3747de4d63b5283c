package fn

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"github.com/measures-sql/msql/internal/sqltypes"
)

func registerNumericFuncs() {
	register(&Scalar{
		Name: "NEG", MinArgs: 1, MaxArgs: 1, Strict: true,
		Ret: retPromote("unary minus"),
		Eval: func(args []sqltypes.Value) (sqltypes.Value, error) {
			return sqltypes.Neg(args[0])
		},
	})
	register(&Scalar{
		Name: "ABS", MinArgs: 1, MaxArgs: 1, Strict: true,
		Ret: retPromote("ABS"),
		Eval: func(args []sqltypes.Value) (sqltypes.Value, error) {
			v := args[0]
			if v.K == sqltypes.KindInt {
				if v.I < 0 {
					if v.I == math.MinInt64 {
						return sqltypes.Value{}, fmt.Errorf("INTEGER overflow in ABS(%d)", v.I)
					}
					return sqltypes.NewInt(-v.I), nil
				}
				return v, nil
			}
			return sqltypes.NewFloat(math.Abs(v.AsFloat())), nil
		},
	})
	register(&Scalar{
		Name: "SIGN", MinArgs: 1, MaxArgs: 1, Strict: true,
		Ret: func(args []sqltypes.Type) (sqltypes.Type, error) {
			if err := argNumeric(args, "SIGN"); err != nil {
				return sqltypes.Type{}, err
			}
			return sqltypes.Type{Kind: sqltypes.KindInt}, nil
		},
		Eval: func(args []sqltypes.Value) (sqltypes.Value, error) {
			f := args[0].AsFloat()
			switch {
			case f > 0:
				return sqltypes.NewInt(1), nil
			case f < 0:
				return sqltypes.NewInt(-1), nil
			default:
				return sqltypes.NewInt(0), nil
			}
		},
	})
	register(&Scalar{
		Name: "ROUND", MinArgs: 1, MaxArgs: 2, Strict: true,
		Ret: func(args []sqltypes.Type) (sqltypes.Type, error) {
			if err := argNumeric(args, "ROUND"); err != nil {
				return sqltypes.Type{}, err
			}
			return sqltypes.Type{Kind: sqltypes.KindFloat}, nil
		},
		Eval: func(args []sqltypes.Value) (sqltypes.Value, error) {
			scale := 0.0
			if len(args) == 2 {
				scale = args[1].AsFloat()
			}
			mult := math.Pow(10, scale)
			return sqltypes.NewFloat(math.Round(args[0].AsFloat()*mult) / mult), nil
		},
	})
	unaryFloat := func(name string, f func(float64) float64, domain func(float64) error) {
		register(&Scalar{
			Name: name, MinArgs: 1, MaxArgs: 1, Strict: true,
			Ret: func(args []sqltypes.Type) (sqltypes.Type, error) {
				if err := argNumeric(args, name); err != nil {
					return sqltypes.Type{}, err
				}
				return sqltypes.Type{Kind: sqltypes.KindFloat}, nil
			},
			Eval: func(args []sqltypes.Value) (sqltypes.Value, error) {
				x := args[0].AsFloat()
				if domain != nil {
					if err := domain(x); err != nil {
						return sqltypes.Value{}, err
					}
				}
				return sqltypes.NewFloat(f(x)), nil
			},
		})
	}
	unaryFloat("SQRT", math.Sqrt, func(x float64) error {
		if x < 0 {
			return fmt.Errorf("SQRT of negative value %g", x)
		}
		return nil
	})
	unaryFloat("LN", math.Log, func(x float64) error {
		if x <= 0 {
			return fmt.Errorf("LN of non-positive value %g", x)
		}
		return nil
	})
	unaryFloat("EXP", math.Exp, nil)
	intify := func(name string, f func(float64) float64) {
		register(&Scalar{
			Name: name, MinArgs: 1, MaxArgs: 1, Strict: true,
			Ret: retPromote(name),
			Eval: func(args []sqltypes.Value) (sqltypes.Value, error) {
				if args[0].K == sqltypes.KindInt {
					return args[0], nil
				}
				return sqltypes.NewFloat(f(args[0].AsFloat())), nil
			},
		})
	}
	intify("FLOOR", math.Floor)
	intify("CEIL", math.Ceil)
	intify("CEILING", math.Ceil)
	register(&Scalar{
		Name: "POWER", MinArgs: 2, MaxArgs: 2, Strict: true,
		Ret: func(args []sqltypes.Type) (sqltypes.Type, error) {
			if err := argNumeric(args, "POWER"); err != nil {
				return sqltypes.Type{}, err
			}
			return sqltypes.Type{Kind: sqltypes.KindFloat}, nil
		},
		Eval: func(args []sqltypes.Value) (sqltypes.Value, error) {
			return sqltypes.NewFloat(math.Pow(args[0].AsFloat(), args[1].AsFloat())), nil
		},
	})
	register(&Scalar{
		Name: "MOD", MinArgs: 2, MaxArgs: 2, Strict: true,
		Ret: retPromote("MOD"),
		Eval: func(args []sqltypes.Value) (sqltypes.Value, error) {
			return sqltypes.Mod(args[0], args[1])
		},
	})
	register(&Scalar{
		Name: "RANDOM", MinArgs: 0, MaxArgs: 0,
		Volatile: true,
		Ret:      retKind(sqltypes.KindFloat),
		Eval: func([]sqltypes.Value) (sqltypes.Value, error) {
			return sqltypes.NewFloat(rand.Float64()), nil
		},
	})
}

func registerStringFuncs() {
	str1 := func(name string, f func(string) string) {
		register(&Scalar{
			Name: name, MinArgs: 1, MaxArgs: 1, Strict: true,
			Ret: retKind(sqltypes.KindString),
			Eval: func(args []sqltypes.Value) (sqltypes.Value, error) {
				if args[0].K != sqltypes.KindString {
					return sqltypes.Value{}, fmt.Errorf("%s: expected string argument", name)
				}
				return sqltypes.NewString(f(args[0].S)), nil
			},
		})
	}
	str1("UPPER", strings.ToUpper)
	str1("LOWER", strings.ToLower)
	str1("TRIM", strings.TrimSpace)
	register(&Scalar{
		Name: "LENGTH", MinArgs: 1, MaxArgs: 1, Strict: true,
		Ret: retKind(sqltypes.KindInt),
		Eval: func(args []sqltypes.Value) (sqltypes.Value, error) {
			if args[0].K != sqltypes.KindString {
				return sqltypes.Value{}, fmt.Errorf("LENGTH: expected string argument")
			}
			return sqltypes.NewInt(int64(len([]rune(args[0].S)))), nil
		},
	})
	register(&Scalar{
		Name: "SUBSTRING", MinArgs: 2, MaxArgs: 3, Strict: true,
		Ret: retStringIntArgs("SUBSTRING"),
		Eval: func(args []sqltypes.Value) (sqltypes.Value, error) {
			runes := []rune(args[0].S)
			start := int(args[1].I) - 1 // SQL is 1-based
			if start < 0 {
				start = 0
			}
			if start > len(runes) {
				start = len(runes)
			}
			end := len(runes)
			if len(args) == 3 {
				length := args[2].I
				if length < 0 {
					return sqltypes.Value{}, fmt.Errorf("SUBSTRING: negative length %d", length)
				}
				// Compare in int64: start + int(length) wraps for huge
				// lengths and used to truncate the result to "".
				if length < int64(end-start) {
					end = start + int(length)
				}
			}
			return sqltypes.NewString(string(runes[start:end])), nil
		},
	})
	register(&Scalar{
		Name: "REPLACE", MinArgs: 3, MaxArgs: 3, Strict: true,
		Ret: retKind(sqltypes.KindString),
		Eval: func(args []sqltypes.Value) (sqltypes.Value, error) {
			return sqltypes.NewString(strings.ReplaceAll(args[0].S, args[1].S, args[2].S)), nil
		},
	})
	register(&Scalar{
		Name: "CONCAT", MinArgs: 1, MaxArgs: -1, Strict: true,
		Ret: retKind(sqltypes.KindString),
		Eval: func(args []sqltypes.Value) (sqltypes.Value, error) {
			var sb strings.Builder
			for _, a := range args {
				s, err := sqltypes.Cast(a, sqltypes.KindString)
				if err != nil {
					return sqltypes.Value{}, err
				}
				sb.WriteString(s.S)
			}
			return sqltypes.NewString(sb.String()), nil
		},
	})
	register(&Scalar{
		Name: "LEFT", MinArgs: 2, MaxArgs: 2, Strict: true,
		Ret: retStringIntArgs("LEFT"),
		Eval: func(args []sqltypes.Value) (sqltypes.Value, error) {
			runes := []rune(args[0].S)
			n := int(args[1].I)
			if n < 0 {
				n = 0
			}
			if n > len(runes) {
				n = len(runes)
			}
			return sqltypes.NewString(string(runes[:n])), nil
		},
	})
	register(&Scalar{
		Name: "RIGHT", MinArgs: 2, MaxArgs: 2, Strict: true,
		Ret: retStringIntArgs("RIGHT"),
		Eval: func(args []sqltypes.Value) (sqltypes.Value, error) {
			runes := []rune(args[0].S)
			n := int(args[1].I)
			if n < 0 {
				n = 0
			}
			if n > len(runes) {
				n = len(runes)
			}
			return sqltypes.NewString(string(runes[len(runes)-n:])), nil
		},
	})
}

func registerConditionalFuncs() {
	commonOf := func(name string) func([]sqltypes.Type) (sqltypes.Type, error) {
		return func(args []sqltypes.Type) (sqltypes.Type, error) {
			kind := sqltypes.KindUnknown
			for _, a := range args {
				k, err := sqltypes.CommonType(kind, a.Kind)
				if err != nil {
					return sqltypes.Type{}, fmt.Errorf("%s: %v", name, err)
				}
				kind = k
			}
			return sqltypes.Type{Kind: kind}, nil
		}
	}
	register(&Scalar{
		Name: "COALESCE", MinArgs: 1, MaxArgs: -1, Strict: false,
		Ret: commonOf("COALESCE"),
		Eval: func(args []sqltypes.Value) (sqltypes.Value, error) {
			for _, a := range args {
				if !a.Null {
					return a, nil
				}
			}
			return args[len(args)-1], nil
		},
	})
	register(&Scalar{
		Name: "NULLIF", MinArgs: 2, MaxArgs: 2, Strict: false,
		Ret: func(args []sqltypes.Type) (sqltypes.Type, error) {
			return args[0], nil
		},
		Eval: func(args []sqltypes.Value) (sqltypes.Value, error) {
			if sqltypes.NotDistinct(args[0], args[1]) {
				return sqltypes.Null(args[0].K), nil
			}
			return args[0], nil
		},
	})
	extreme := func(name string, wantLess bool) {
		register(&Scalar{
			Name: name, MinArgs: 1, MaxArgs: -1, Strict: true,
			Ret: commonOf(name),
			Eval: func(args []sqltypes.Value) (sqltypes.Value, error) {
				best := args[0]
				for _, a := range args[1:] {
					c, err := sqltypes.Compare(a, best)
					if err != nil {
						return sqltypes.Value{}, err
					}
					if (c < 0) == wantLess && c != 0 {
						best = a
					}
				}
				return best, nil
			},
		})
	}
	extreme("GREATEST", false)
	extreme("LEAST", true)
}
