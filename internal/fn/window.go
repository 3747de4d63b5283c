package fn

import (
	"fmt"
	"strings"

	"github.com/measures-sql/msql/internal/sqltypes"
)

// Window-only functions (usable only with OVER). Aggregate functions may
// also be used as window functions; the executor handles both.

var windowOnly = map[string]bool{
	"ROW_NUMBER":  true,
	"RANK":        true,
	"DENSE_RANK":  true,
	"LAG":         true,
	"LEAD":        true,
	"FIRST_VALUE": true,
	"LAST_VALUE":  true,
	"NTILE":       true,
}

// IsWindowOnly reports whether name is valid only with an OVER clause.
func IsWindowOnly(name string) bool { return windowOnly[strings.ToUpper(name)] }

// WindowRet computes the result type of a window-only function.
func WindowRet(name string, args []sqltypes.Type) (sqltypes.Type, error) {
	switch strings.ToUpper(name) {
	case "ROW_NUMBER", "RANK", "DENSE_RANK", "NTILE":
		if len(args) > 1 {
			return sqltypes.Type{}, fmt.Errorf("%s takes no arguments", name)
		}
		if len(args) == 1 {
			if err := requireInt(args[0], name); err != nil {
				return sqltypes.Type{}, err
			}
		}
		return sqltypes.Type{Kind: sqltypes.KindInt}, nil
	case "LAG", "LEAD":
		if len(args) < 1 || len(args) > 3 {
			return sqltypes.Type{}, fmt.Errorf("%s expects 1 to 3 arguments", name)
		}
		if len(args) >= 2 {
			if err := requireInt(args[1], name); err != nil {
				return sqltypes.Type{}, err
			}
		}
		return args[0].Scalar(), nil
	case "FIRST_VALUE", "LAST_VALUE":
		if len(args) != 1 {
			return sqltypes.Type{}, fmt.Errorf("%s expects 1 argument", name)
		}
		return args[0].Scalar(), nil
	default:
		return sqltypes.Type{}, fmt.Errorf("unknown window function %s", name)
	}
}
