package msql_test

// Differential-testing harness for the vectorized execution engine
// (experiment E25's correctness side). Every generated query runs
// through the row engine and the vectorized engine, under each planning
// strategy and at 1 and 4 workers, and must return row-for-row
// identical results. The row engine is the oracle: it is the
// implementation every paper listing is tested against.
//
// The corpus size defaults to 80 queries per strategy and scales with
// MSQL_DIFF_QUERIES (the nightly CI run uses 500). On failure the
// harness prints the generator seed and the SQL, which reproduce the
// query deterministically.

import (
	"context"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"

	"github.com/measures-sql/msql/internal/qgen"
	"github.com/measures-sql/msql/internal/sqltypes"
	"github.com/measures-sql/msql/msql"
)

// liftArgs converts the SQL literal texts recorded by a lifting
// generator into Go argument values for prepared execution: quoted
// strings, floats (the generator only emits them with a '.'), ints.
func liftArgs(t *testing.T, lits []string) []any {
	t.Helper()
	args := make([]any, len(lits))
	for i, l := range lits {
		switch {
		case strings.HasPrefix(l, "'"):
			args[i] = strings.Trim(l, "'")
		case strings.Contains(l, "."):
			f, err := strconv.ParseFloat(l, 64)
			if err != nil {
				t.Fatalf("lifted literal %q: %v", l, err)
			}
			args[i] = f
		default:
			n, err := strconv.ParseInt(l, 10, 64)
			if err != nil {
				t.Fatalf("lifted literal %q: %v", l, err)
			}
			args[i] = n
		}
	}
	return args
}

func diffCorpusSize(t testing.TB) int {
	if s := os.Getenv("MSQL_DIFF_QUERIES"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			t.Fatalf("bad MSQL_DIFF_QUERIES=%q", s)
		}
		return n
	}
	return 80
}

// variant is one execution configuration compared against the row
// oracle.
type variant struct {
	name string
	opts []msql.Option
}

func diffVariants() []variant {
	return []variant{
		{"vec-w1", []msql.Option{msql.WithVectorized(true), msql.WithWorkers(1)}},
		{"vec-w4", []msql.Option{msql.WithVectorized(true), msql.WithWorkers(4)}},
		{"row-w4", []msql.Option{msql.WithVectorized(false), msql.WithWorkers(4)}},
	}
}

// exactRows renders a result for bit-exact comparison, in the spirit of
// perfbench's canonical answers: every cell carries its value kind, a
// NULL is tagged as such, a float is its IEEE-754 bit pattern, and any
// other value goes through the standard value renderer. Two results
// agree only when kinds, NULL-ness and every bit of every value do.
func exactRows(res *msql.Result) []string {
	out := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		cells := make([]string, len(row))
		for j, v := range row {
			switch {
			case v.Null:
				cells[j] = fmt.Sprintf("%d:NULL", v.K)
			case v.K == sqltypes.KindFloat:
				cells[j] = fmt.Sprintf("%d:%016x", v.K, math.Float64bits(v.Float()))
			default:
				cells[j] = fmt.Sprintf("%d:%s", v.K, v.String())
			}
		}
		out[i] = strings.Join(cells, "|")
	}
	return out
}

// TestDifferentialRowVsVectorized is the harness. The oracle run is the
// row engine at Workers=1 under the strategy being tested; each variant
// must agree with it bit for bit (exactRows), including on whether the
// query errors at all.
func TestDifferentialRowVsVectorized(t *testing.T) {
	const seed = 20240805
	corpus := diffCorpusSize(t)
	for _, strategy := range []struct {
		name string
		s    msql.Strategy
	}{
		{"inline", msql.StrategyDefault},
		{"memo", msql.StrategyMemo},
		{"naive", msql.StrategyNaive},
	} {
		strategy := strategy
		t.Run(strategy.name, func(t *testing.T) {
			db := buildRandomDB(t, 99, strategy.s)
			db.SetWorkers(1)
			gen := qgen.New(seed, qgen.DefaultCatalog())
			ctx := context.Background()
			vecBatchesBefore := db.Metrics().VecBatches
			for i := 0; i < corpus; i++ {
				q := gen.Query()
				fail := func(format string, args ...any) {
					t.Helper()
					t.Fatalf("query %d (seed %d)\nSQL: %s\n%s", i, seed, q, fmt.Sprintf(format, args...))
				}
				oracle, oracleErr := db.Query(q)
				for _, v := range diffVariants() {
					got, err := db.QueryContext(ctx, q, v.opts...)
					// Error agreement is presence, not message: the
					// vectorized engine may surface an equivalent error
					// from a different row of the batch.
					if (err == nil) != (oracleErr == nil) {
						fail("%s disagrees on error: oracle=%v variant=%v", v.name, oracleErr, err)
					}
					if oracleErr != nil {
						continue
					}
					want, have := exactRows(oracle), exactRows(got)
					if len(want) != len(have) {
						fail("%s row count: oracle=%d variant=%d", v.name, len(want), len(have))
					}
					for r := range want {
						if want[r] != have[r] {
							fail("%s row %d differs:\noracle:  %s\nvariant: %s", v.name, r, want[r], have[r])
						}
					}
				}
			}
			// The harness is only meaningful if the vectorized path
			// actually ran: batches must have been recorded.
			if db.Metrics().VecBatches == vecBatchesBefore {
				t.Fatal("no vectorized batches recorded across the corpus")
			}
		})
	}
}

// TestDifferentialPreparedVsDirect replays the generated corpus through
// PREPARE/EXECUTE: a lifting generator in lockstep with the plain one
// turns every literal into a $n parameter, the direct run of the plain
// query is the oracle, and the prepared run must agree bit for bit —
// including on whether the query errors. Each variant executes twice,
// so the second run exercises the cached compiled pipeline; both runs
// must match, and across the corpus the plan cache must record hits.
func TestDifferentialPreparedVsDirect(t *testing.T) {
	const seed = 20240805
	corpus := diffCorpusSize(t)
	for _, strategy := range []struct {
		name string
		s    msql.Strategy
	}{
		{"inline", msql.StrategyDefault},
		{"memo", msql.StrategyMemo},
		{"naive", msql.StrategyNaive},
	} {
		strategy := strategy
		t.Run(strategy.name, func(t *testing.T) {
			db := buildRandomDB(t, 99, strategy.s)
			db.SetWorkers(1)
			plain := qgen.New(seed, qgen.DefaultCatalog())
			lifted := qgen.New(seed, qgen.DefaultCatalog())
			lifted.SetLift(true)
			ctx := context.Background()
			hitsBefore := db.PlanCacheStats().Hits
			for i := 0; i < corpus; i++ {
				q := plain.Query()
				lq := lifted.Query()
				args := liftArgs(t, lifted.TakeParams())
				fail := func(format string, a ...any) {
					t.Helper()
					t.Fatalf("query %d (seed %d)\nSQL:    %s\nlifted: %s\nargs:   %v\n%s",
						i, seed, q, lq, args, fmt.Sprintf(format, a...))
				}
				oracle, oracleErr := db.Query(q)
				stmt, prepErr := db.Prepare(lq)
				if prepErr != nil {
					if oracleErr == nil {
						fail("prepare failed but direct query succeeded: %v", prepErr)
					}
					continue
				}
				for _, v := range diffVariants() {
					var prev []string
					for run := 0; run < 2; run++ {
						got, err := stmt.QueryContext(ctx, args, v.opts...)
						if (err == nil) != (oracleErr == nil) {
							fail("%s run %d disagrees on error: oracle=%v prepared=%v", v.name, run, oracleErr, err)
						}
						if oracleErr != nil {
							continue
						}
						want, have := exactRows(oracle), exactRows(got)
						if len(want) != len(have) {
							fail("%s run %d row count: oracle=%d prepared=%d", v.name, run, len(want), len(have))
						}
						for r := range want {
							if want[r] != have[r] {
								fail("%s run %d row %d differs:\noracle:   %s\nprepared: %s", v.name, run, r, want[r], have[r])
							}
						}
						if run == 1 {
							for r := range prev {
								if prev[r] != have[r] {
									fail("%s cold/warm runs differ at row %d:\ncold: %s\nwarm: %s", v.name, r, prev[r], have[r])
								}
							}
						}
						prev = have
					}
				}
			}
			if hits := db.PlanCacheStats().Hits; hits <= hitsBefore {
				t.Fatalf("no plan-cache hits across the prepared corpus (before=%d after=%d)", hitsBefore, hits)
			}
		})
	}
}
