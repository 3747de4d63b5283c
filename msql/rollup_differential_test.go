package msql_test

// Differential mutation-replay harness for the materialized rollup
// lattice (experiment E30's correctness side). Two identically seeded
// databases — one with the lattice enabled, one without — replay the
// same interleaved schedule of generated queries and mutations (INSERT
// batches, TRUNCATE, scratch-table DDL); after every step both engines
// must agree bit for bit, including on whether a statement errors. The
// lattice-off engine is the oracle.
//
// Comparison is bit-exact (exactRows, shared with the vectorized
// harness): the lattice's claim is bit-identity, not tolerance — any
// query it cannot reproduce exactly must miss instead.
//
// The schedule length scales with MSQL_DIFF_QUERIES but never drops
// below 500 steps per configuration.

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/measures-sql/msql/internal/qgen"
	"github.com/measures-sql/msql/msql"
)

func rollupScheduleSteps(t testing.TB) int {
	steps := 2 * diffCorpusSize(t)
	if steps < 500 {
		steps = 500
	}
	return steps
}

// TestDifferentialRollupMutationReplay replays one interleaved
// query/mutation schedule per (strategy, workers) configuration.
func TestDifferentialRollupMutationReplay(t *testing.T) {
	const seed = 20240805
	steps := rollupScheduleSteps(t)
	for _, strategy := range []struct {
		name string
		s    msql.Strategy
	}{
		{"inline", msql.StrategyDefault},
		{"memo", msql.StrategyMemo},
		{"naive", msql.StrategyNaive},
	} {
		for _, workers := range []int{1, 4} {
			strategy, workers := strategy, workers
			t.Run(fmt.Sprintf("%s-w%d", strategy.name, workers), func(t *testing.T) {
				t.Parallel()
				oracle := buildRandomDB(t, 99, strategy.s)
				latticed := buildRandomDB(t, 99, strategy.s)
				latticed.SetRollups(true)
				oracle.SetWorkers(workers)
				latticed.SetWorkers(workers)

				queries := qgen.New(seed, qgen.DefaultCatalog())
				mutations := qgen.New(seed+1, qgen.DefaultCatalog())
				sched := rand.New(rand.NewSource(seed + 2))

				nQueries, nMutations := 0, 0
				for i := 0; i < steps; i++ {
					if sched.Intn(3) == 0 {
						m := mutations.Mutation()
						nMutations++
						errO := oracle.Exec(m)
						errL := latticed.Exec(m)
						if (errO == nil) != (errL == nil) {
							t.Fatalf("step %d (seed %d) mutation disagrees on error\nSQL: %s\noracle: %v\nlattice: %v",
								i, seed, m, errO, errL)
						}
						continue
					}
					q := queries.Query()
					nQueries++
					fail := func(format string, args ...any) {
						t.Helper()
						t.Fatalf("step %d (seed %d)\nSQL: %s\n%s", i, seed, q, fmt.Sprintf(format, args...))
					}
					want, errO := oracle.Query(q)
					got, errL := latticed.Query(q)
					if (errO == nil) != (errL == nil) {
						fail("disagrees on error: oracle=%v lattice=%v", errO, errL)
					}
					if errO != nil {
						continue
					}
					w, h := exactRows(want), exactRows(got)
					if len(w) != len(h) {
						fail("row count: oracle=%d lattice=%d", len(w), len(h))
					}
					for r := range w {
						if w[r] != h[r] {
							fail("row %d differs:\noracle:  %s\nlattice: %s", r, w[r], h[r])
						}
					}
				}
				st := latticed.RollupStats()
				if st.Hits == 0 {
					t.Fatalf("lattice never answered a query across %d queries / %d mutations (misses=%d)",
						nQueries, nMutations, st.Misses)
				}
				if oracleHits := oracle.RollupStats().Hits; oracleHits != 0 {
					t.Fatalf("oracle recorded %d rollup hits with rollups disabled", oracleHits)
				}
				t.Logf("%d queries, %d mutations: hits=%d misses=%d builds=%d rebuilds=%d incr=%d inval=%d",
					nQueries, nMutations, st.Hits, st.Misses, st.Builds, st.Rebuilds,
					st.IncrementalRows, st.Invalidations)
			})
		}
	}
}
