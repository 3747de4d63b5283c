package main

// Seeded inputs: table data and request streams. Everything here is a
// pure function of the seed, and the program under test sees only the
// SQL text (and prepared-statement parameters) generated here.

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"github.com/measures-sql/msql/internal/datagen"
	"github.com/measures-sql/msql/internal/sqltypes"
)

// Data shape shared by the workloads: 100 products, 1 000 customers,
// three years of orders ending 2024-12-31.
const (
	nProducts  = 100
	nCustomers = 1000
	nYears     = 3
	firstYear  = 2022
	batchRows  = 20 // rows per INSERT batch
)

const ordersDDL = `CREATE TABLE Orders (prodName VARCHAR, custName VARCHAR, orderDate DATE,
                     revenue INTEGER, cost INTEGER)`

// measureViewDDL is the paper's enhanced-orders view: two measures plus
// the order year as a dimension.
const measureViewDDL = `CREATE VIEW OrdersM AS
SELECT *, SUM(revenue) AS MEASURE sumRevenue,
       (SUM(revenue) - SUM(cost)) / SUM(revenue) AS MEASURE profitMargin,
       YEAR(orderDate) AS orderYear
FROM Orders`

// ordersData generates n orders from seed.
func ordersData(seed int64, n int) [][]sqltypes.Value {
	return datagen.Generate(datagen.Config{
		Seed: seed, Customers: nCustomers, Products: nProducts, Orders: n, Years: nYears,
	}).Orders
}

// insertStatements renders rows as INSERT statements of at most batch
// rows each.
func insertStatements(table string, rows [][]sqltypes.Value, batch int) []string {
	var out []string
	for start := 0; start < len(rows); start += batch {
		end := min(start+batch, len(rows))
		var sb strings.Builder
		fmt.Fprintf(&sb, "INSERT INTO %s VALUES ", table)
		for i, row := range rows[start:end] {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteByte('(')
			for j, v := range row {
				if j > 0 {
					sb.WriteString(", ")
				}
				sb.WriteString(v.SQLLiteral())
			}
			sb.WriteByte(')')
		}
		out = append(out, sb.String())
	}
	return out
}

// insertBatchOp draws one INSERT batch of batchRows new orders.
func insertBatchOp(rng *rand.Rand) op {
	first := sqltypes.NewDate(firstYear, time.January, 1).I
	rows := make([][]sqltypes.Value, batchRows)
	for i := range rows {
		rev := int64(1 + rng.Intn(100))
		rows[i] = []sqltypes.Value{
			sqltypes.NewString(datagen.ProductName(rng.Intn(nProducts))),
			sqltypes.NewString(datagen.CustomerName(rng.Intn(nCustomers))),
			sqltypes.NewDateDays(first + rng.Int63n(nYears*365)),
			sqltypes.NewInt(rev),
			sqltypes.NewInt(1 + rng.Int63n(rev)),
		}
	}
	return op{kind: opWrite, tmpl: -1, sql: insertStatements("Orders", rows, batchRows)[0]}
}

type opKind int

const (
	opRead     opKind = iota // plain SQL over /query
	opPrepared               // EXECUTE of a prepared panel over /execute
	opWrite                  // INSERT batch over /query
)

// op is one request of a workload.
type op struct {
	kind opKind
	// tmpl is the template, panel or query shape the request came from
	// (-1 for writes).
	tmpl int
	// sql is the statement text, or the prepared statement's name.
	sql  string
	args []any // prepared-statement parameters
}

// key identifies a distinct request.
func (o op) key() string {
	if o.kind == opPrepared {
		return fmt.Sprintf("EXECUTE %s %v", o.sql, o.args)
	}
	return o.sql
}

// generator hands out one workload's request stream: a sequence of
// blocks, each a seeded shuffle of a fixed mix, so every prefix of the
// stream holds nearly the same mix of request kinds whatever the seed.
type generator struct {
	mu    sync.Mutex
	rng   *rand.Rand
	block func(*rand.Rand) []op
	buf   []op
	n     int
}

func randFor(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func newGenerator(seed int64, block func(*rand.Rand) []op) *generator {
	return &generator{rng: randFor(seed), block: block}
}

// next returns the stream's next request and its index.
func (g *generator) next() (int, op) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.buf) == 0 {
		g.buf = g.block(g.rng)
		g.rng.Shuffle(len(g.buf), func(i, j int) { g.buf[i], g.buf[j] = g.buf[j], g.buf[i] })
	}
	o := g.buf[0]
	g.buf = g.buf[1:]
	i := g.n
	g.n++
	return i, o
}

func prod(i int) string { return datagen.ProductName(i) }

func sqlDate(days int64) string { return sqltypes.NewDateDays(days).SQLLiteral() }

// Analyst templates: every request is a fresh literal binding of one
// of these, the paper's query shapes over the measure view.
var analystTemplates = []struct {
	name string
	bind func(rng *rand.Rand) string
}{
	{"scan_filter_agg", func(rng *rand.Rand) string {
		lo := sqltypes.NewDate(firstYear, time.January, 1).I + rng.Int63n(2*365)
		return fmt.Sprintf(`SELECT prodName, COUNT(*) AS n, SUM(revenue) AS rev, SUM(revenue - cost) AS profit
FROM Orders WHERE orderDate BETWEEN %s AND %s AND revenue > %d
GROUP BY prodName ORDER BY prodName`, sqlDate(lo), sqlDate(lo+365), 5+rng.Intn(20))
	}},
	{"aggregate_measure", func(rng *rand.Rand) string {
		p := rng.Intn(nProducts - 9)
		return fmt.Sprintf(`SELECT prodName, orderYear, AGGREGATE(profitMargin) AS margin, COUNT(*) AS n
FROM OrdersM WHERE prodName BETWEEN '%s' AND '%s' AND revenue > %d
GROUP BY prodName, orderYear ORDER BY prodName, orderYear`, prod(p), prod(p+9), 1+rng.Intn(30))
	}},
	{"yoy", func(rng *rand.Rand) string {
		return fmt.Sprintf(`SELECT prodName, orderYear,
       sumRevenue / sumRevenue AT (SET orderYear = CURRENT orderYear - 1) AS yoy
FROM OrdersM WHERE prodName = '%s' AND revenue > %d
GROUP BY prodName, orderYear ORDER BY prodName, orderYear`, prod(rng.Intn(nProducts)), 1+rng.Intn(30))
	}},
	{"share_all", func(rng *rand.Rand) string {
		return fmt.Sprintf(`SELECT prodName, orderYear, sumRevenue / sumRevenue AT (ALL prodName) AS share
FROM OrdersM WHERE prodName = '%s' AND revenue > %d
GROUP BY prodName, orderYear ORDER BY prodName, orderYear`, prod(rng.Intn(nProducts)), 1+rng.Intn(30))
	}},
	{"visible_topk", func(rng *rand.Rand) string {
		p := rng.Intn(nProducts - 2)
		return fmt.Sprintf(`SELECT prodName, sumRevenue AT (VISIBLE) AS vis, sumRevenue AS total
FROM OrdersM WHERE prodName BETWEEN '%s' AND '%s' AND revenue > %d
GROUP BY prodName ORDER BY vis DESC, prodName LIMIT 2`, prod(p), prod(p+2), 1+rng.Intn(30))
	}},
}

// analystMix is how many bindings of each template one block holds:
// the cheap scan and inlined-measure shapes three times, each shape
// that evaluates measure contexts as correlated subqueries once. Fixed
// counts keep every run's mix the same, and put the read median well
// inside the cheap shapes' latencies rather than between two shapes.
var analystMix = []int{3, 3, 1, 1, 1}

// analystBlock is one block of the analyst mix, freshly bound.
func analystBlock(rng *rand.Rand) []op {
	var out []op
	for i, t := range analystTemplates {
		for j := 0; j < analystMix[i]; j++ {
			out = append(out, op{kind: opRead, tmpl: i, sql: t.bind(rng)})
		}
	}
	return out
}

// panel is one dashboard tile: a text query or a prepared statement,
// each with three bindings.
type panel struct {
	name     string
	prepared bool
	sql      string // text: one %s per binding; prepared: the $1 statement
	bindings []any  // text: strings spliced into sql; prepared: parameters
	weight   int    // reads of this panel per block
}

// dashboardPanels are the dashboard's eight tiles × three bindings: 24
// distinct requests. Text panels are lattice-eligible (GROUP BY,
// AT (ALL …), ROLLUP; the AVG panel can only be maintained by rebuild);
// prepared panels carry a $1 predicate, which the lattice never
// answers, so they run through the plan cache and its result memo.
var dashboardPanels = []panel{
	{name: "by_product", sql: `SELECT prodName, COUNT(*) AS n, SUM(revenue) AS rev, SUM(revenue - cost) AS profit
FROM Orders WHERE orderDate >= %s GROUP BY prodName ORDER BY prodName`,
		bindings: []any{"DATE '2022-01-01'", "DATE '2023-01-01'", "DATE '2024-01-01'"}, weight: 8},
	{name: "avg_by_product", sql: `SELECT prodName, AVG(revenue) AS avgRev, COUNT(*) AS n
FROM Orders WHERE custName < %s GROUP BY prodName ORDER BY prodName`,
		bindings: []any{"'cust0300'", "'cust0600'", "'cust0900'"}, weight: 2},
	{name: "share_by_product", sql: `SELECT prodName, sumRevenue, sumRevenue / sumRevenue AT (ALL prodName) AS share
FROM OrdersM WHERE orderYear = %s GROUP BY prodName ORDER BY prodName`,
		bindings: []any{"2022", "2023", "2024"}, weight: 2},
	{name: "rollup_year", sql: `SELECT prodName, YEAR(orderDate) AS y, SUM(revenue) AS rev, COUNT(*) AS n
FROM Orders WHERE prodName < %s GROUP BY ROLLUP(prodName, YEAR(orderDate))
ORDER BY prodName NULLS LAST, y NULLS LAST`,
		bindings: []any{"'prod020'", "'prod050'", "'prod080'"}, weight: 6},
	{name: "revenue_over", prepared: true, sql: `SELECT prodName, COUNT(*) AS n, SUM(revenue) AS rev
FROM Orders WHERE revenue > $1 GROUP BY prodName ORDER BY prodName`,
		bindings: []any{10, 50, 90}, weight: 4},
	{name: "top_customers", prepared: true, sql: `SELECT custName, SUM(revenue) AS rev, COUNT(*) AS n
FROM Orders WHERE prodName = $1 GROUP BY custName ORDER BY rev DESC, custName LIMIT 10`,
		bindings: []any{"prod007", "prod042", "prod077"}, weight: 4},
	{name: "margin_year", prepared: true, sql: `SELECT prodName, AGGREGATE(profitMargin) AS margin
FROM OrdersM WHERE orderYear = $1 GROUP BY prodName ORDER BY prodName`,
		bindings: []any{2022, 2023, 2024}, weight: 7},
	{name: "avg_cost_years", prepared: true, sql: `SELECT YEAR(orderDate) AS y, AVG(cost) AS avgCost, COUNT(*) AS n
FROM Orders WHERE prodName = $1 GROUP BY YEAR(orderDate) ORDER BY y`,
		bindings: []any{"prod011", "prod055", "prod099"}, weight: 3},
}

func panelByName(name string) (panel, bool) {
	for _, p := range dashboardPanels {
		if p.name == name {
			return p, true
		}
	}
	return panel{}, false
}

// panelOp is the request for binding b of panel p.
func panelOp(p int, b int) op {
	pn := dashboardPanels[p]
	if pn.prepared {
		return op{kind: opPrepared, tmpl: p, sql: pn.name, args: []any{pn.bindings[b]}}
	}
	return op{kind: opRead, tmpl: p, sql: fmt.Sprintf(pn.sql, pn.bindings[b])}
}

// dashboardBlock is 36 reads — 18 text, 18 prepared, each panel as
// often as its weight — and four INSERT batches:
// one op in ten writes. The weights put the read median in the middle
// of one lattice-answered panel's latencies (rollup_year, ranks 16-21
// of 36 behind the ~1 ms by_product and margin_year reads) instead of
// on the edge between two panels.
func dashboardBlock(rng *rand.Rand) []op {
	var out []op
	for p, pn := range dashboardPanels {
		// Bindings rotate from a random start, so a panel whose cost
		// depends on its binding keeps the same cost mix in every block.
		b := rng.Intn(len(pn.bindings))
		for i := 0; i < pn.weight; i++ {
			out = append(out, panelOp(p, (b+i)%len(pn.bindings)))
		}
	}
	for i := 0; i < 4; i++ {
		out = append(out, insertBatchOp(rng))
	}
	return out
}

// Sharded query shapes, by the coordinator path each takes: routed (the
// partition column pinned to a literal), scatter (mergeable aggregates,
// partial states merged on the coordinator), and gather (a measure,
// evaluated over rows fetched from every shard).
var shardedShapes = []struct {
	name, path, sql string
	bindings        []string
}{
	{"routed_customers", "routed", `SELECT custName, SUM(revenue) AS rev, COUNT(*) AS n
FROM Orders WHERE prodName = '%s' GROUP BY custName ORDER BY rev DESC, custName LIMIT 10`,
		[]string{"prod003", "prod031", "prod064", "prod090"}},
	{"routed_years", "routed", `SELECT YEAR(orderDate) AS y, SUM(revenue) AS rev, SUM(cost) AS cost
FROM Orders WHERE prodName = '%s' GROUP BY YEAR(orderDate) ORDER BY y`,
		[]string{"prod012", "prod045", "prod071", "prod098"}},
	{"scatter_products", "scatter", `SELECT prodName, COUNT(*) AS n, SUM(revenue) AS rev, SUM(revenue - cost) AS profit
FROM Orders WHERE revenue > %s GROUP BY prodName ORDER BY prodName`,
		[]string{"10", "40", "70", "90"}},
	{"scatter_years", "scatter", `SELECT YEAR(orderDate) AS y, COUNT(*) AS n, MIN(revenue) AS lo, MAX(revenue) AS hi
FROM Orders WHERE custName < '%s' GROUP BY YEAR(orderDate) ORDER BY y`,
		[]string{"cust0250", "cust0500", "cust0750", "cust1000"}},
	{"gather_share", "gather", `SELECT prodName, sumRevenue, sumRevenue / sumRevenue AT (ALL prodName) AS share
FROM (SELECT *, SUM(revenue) AS MEASURE sumRevenue FROM Orders) AS o
WHERE revenue > %s GROUP BY prodName ORDER BY prodName`,
		[]string{"20", "50", "80", "95"}},
}

// shardedShapeMix is how many of each shape an 80-op block holds, next
// to eight INSERT batches. A gather ships every row of Orders to the
// coordinator and costs as much as a dozen scatters, so one block holds
// one: its share of reads (1 in 72) keeps p99 inside the gather
// latencies, and the routed majority (four reads in five) keeps the
// median inside the routed latencies, rather than either sitting on
// the edge between two shapes.
var shardedShapeMix = []int{28, 28, 8, 7, 1}

func shardedOp(s, b int) op {
	sh := shardedShapes[s]
	return op{kind: opRead, tmpl: s, sql: fmt.Sprintf(sh.sql, sh.bindings[b])}
}

func shardedBlock(rng *rand.Rand) []op {
	var out []op
	for s, n := range shardedShapeMix {
		sh := shardedShapes[s]
		b := rng.Intn(len(sh.bindings))
		for i := 0; i < n; i++ {
			out = append(out, shardedOp(s, (b+i)%len(sh.bindings)))
		}
	}
	for i := 0; i < 8; i++ {
		out = append(out, insertBatchOp(rng))
	}
	return out
}
