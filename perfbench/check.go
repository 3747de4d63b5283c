package main

// Answer checking. A served answer (msql/client, JSON on the wire) and
// an oracle answer (msql.DB, in process) are both reduced to one
// canonical byte string: column names, type names, and every cell as
// NULL, integer, string, boolean, date, or a float's IEEE-754 bit
// pattern. Two answers agree only when the strings are identical, so a
// float that differs in its last bit is a wrong answer.

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"

	"github.com/measures-sql/msql/internal/wire"
	"github.com/measures-sql/msql/msql"
	"github.com/measures-sql/msql/msql/client"
)

// answer is a result in canonical form.
type answer struct {
	buf  bytes.Buffer
	rows int
}

func (a *answer) field(tag byte, s string) {
	a.buf.WriteByte(tag)
	a.buf.WriteString(strconv.Itoa(len(s)))
	a.buf.WriteByte(':')
	a.buf.WriteString(s)
}

func (a *answer) digest() [32]byte { return sha256.Sum256(a.buf.Bytes()) }

// cell canonicalizes one JSON-native wire value of SQL type typ.
func (a *answer) cell(v any, typ string) error {
	if v == nil {
		a.field('N', "")
		return nil
	}
	kind, _, _ := strings.Cut(typ, " ")
	switch x := v.(type) {
	case json.Number:
		switch kind {
		case "INTEGER":
			i, err := strconv.ParseInt(string(x), 10, 64)
			if err != nil {
				return fmt.Errorf("INTEGER cell %q: %w", x, err)
			}
			a.field('I', strconv.FormatInt(i, 10))
		case "DOUBLE":
			f, err := strconv.ParseFloat(string(x), 64)
			if err != nil {
				return fmt.Errorf("DOUBLE cell %q: %w", x, err)
			}
			a.field('F', strconv.FormatUint(math.Float64bits(f), 16))
		default:
			return fmt.Errorf("number %s in a %s column", x, typ)
		}
	case string:
		a.field('S', x)
	case bool:
		a.field('B', strconv.FormatBool(x))
	default:
		return fmt.Errorf("unexpected wire value %T", v)
	}
	return nil
}

func (a *answer) header(cols, types []string) {
	a.field('C', strings.Join(cols, "\x00"))
	a.field('T', strings.Join(types, "\x00"))
}

// wireAnswer canonicalizes a served result; the client must have been
// asked for raw numbers so integers and floats arrive undamaged.
func wireAnswer(res *client.Result) (*answer, error) {
	a := &answer{rows: len(res.Rows)}
	a.header(res.Columns, res.Types)
	for _, row := range res.Rows {
		if len(row) != len(res.Types) {
			return nil, fmt.Errorf("row of %d cells under %d columns", len(row), len(res.Types))
		}
		for j, v := range row {
			if err := a.cell(v, res.Types[j]); err != nil {
				return nil, err
			}
		}
		a.buf.WriteByte('\n')
	}
	return a, nil
}

// oracleAnswer canonicalizes an in-process result through the wire's
// own value encoding, so both sides are read the same way.
func oracleAnswer(res *msql.Result) (*answer, error) {
	types := make([]string, len(res.Types))
	for i, t := range res.Types {
		types[i] = t.String()
	}
	rows, err := json.Marshal(wire.EncodeRows(res.Rows))
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(rows))
	dec.UseNumber()
	var decoded [][]any
	if err := dec.Decode(&decoded); err != nil {
		return nil, err
	}
	return wireAnswer(&client.Result{Columns: res.Columns, Types: types, Rows: decoded})
}

// sameAnswer compares a served result with the oracle's, bit for bit.
func sameAnswer(got *client.Result, want *msql.Result) error {
	g, err := wireAnswer(got)
	if err != nil {
		return fmt.Errorf("served answer: %w", err)
	}
	w, err := oracleAnswer(want)
	if err != nil {
		return fmt.Errorf("oracle answer: %w", err)
	}
	if !bytes.Equal(g.buf.Bytes(), w.buf.Bytes()) {
		return fmt.Errorf("served answer (%d rows) differs from the oracle's (%d rows)", g.rows, w.rows)
	}
	return nil
}
