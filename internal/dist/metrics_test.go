package dist_test

// Metrics characterisation: the shape of the three metric renderings
// (Prometheus text, JSON, msql_stats.metrics) for two fully populated
// snapshots, pinned against testdata/metrics_golden.txt.

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"github.com/measures-sql/msql/internal/engine"
	"github.com/measures-sql/msql/internal/paperdata"
	"github.com/measures-sql/msql/internal/server"
	"github.com/measures-sql/msql/msql"
)

// metricsNode is a durable session with rollups and a registered
// server, after a workload that touches the WAL, the lattice, the plan
// cache and the measure memo.
func metricsNode(t *testing.T) *msql.DB {
	t.Helper()
	db, err := msql.OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	db.SetRollups(true)
	server.New(db, server.Config{})
	db.MustExec(paperdata.All)
	for _, q := range differentialQueries {
		db.MustQuery(q)
	}
	st, err := db.Prepare(`SELECT prodName, SUM(revenue) AS r FROM Orders WHERE cost > $1 GROUP BY prodName`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := st.Query(1); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// metricsCoordinator returns the local session of the 2-shard
// coordinator, which carries the shard counters, after one query of
// every path.
func metricsCoordinator(t *testing.T) *msql.DB {
	t.Helper()
	coord, oracle, _ := cluster(t, 2)
	execBoth(t, coord, oracle, paperdata.All)
	for _, q := range differentialQueries {
		queryBoth(t, coord, oracle, q)
	}
	return coord.Local()
}

// metricsShape lists, one per line and sorted, every Prometheus
// (name, TYPE, label names) triple, every JSON key path, and every
// msql_stats.metrics name of db's current snapshot.
func metricsShape(t *testing.T, label string, db *msql.DB) []string {
	t.Helper()
	snap := db.Metrics()
	var lines []string
	types := map[string]string{}
	labels := map[string]map[string]bool{}
	for _, line := range strings.Split(snap.Prometheus(), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[1] == "TYPE" {
			types[f[2]] = f[3]
			labels[f[2]] = map[string]bool{}
			continue
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		series := line[:strings.LastIndexByte(line, ' ')]
		name, lbls, _ := strings.Cut(series, "{")
		if _, ok := types[name]; !ok {
			for _, suf := range []string{"_bucket", "_sum", "_count"} {
				if b := strings.TrimSuffix(name, suf); types[b] == "histogram" {
					name = b
				}
			}
		}
		for _, kv := range strings.Split(strings.TrimSuffix(lbls, "}"), ",") {
			if k, _, ok := strings.Cut(kv, "="); ok {
				labels[name][k] = true
			}
		}
	}
	for name, typ := range types {
		var ls []string
		for l := range labels[name] {
			ls = append(ls, l)
		}
		sort.Strings(ls)
		lines = append(lines, strings.TrimSpace(fmt.Sprintf("%s prom %s %s %s", label, name, typ, strings.Join(ls, ","))))
	}
	var tree map[string]any
	if err := json.Unmarshal([]byte(snap.JSON()), &tree); err != nil {
		t.Fatal(err)
	}
	for _, path := range jsonLeaves("", tree) {
		lines = append(lines, label+" json "+path)
	}
	res := db.MustQuery(`SELECT name FROM msql_stats.metrics`)
	for _, row := range res.Rows {
		lines = append(lines, label+" metrics "+row[0].S)
	}
	sort.Strings(lines)
	return lines
}

// jsonLeaves returns the dotted key path of every non-object value in
// a decoded JSON object.
func jsonLeaves(prefix string, v any) []string {
	obj, ok := v.(map[string]any)
	if !ok {
		return []string{prefix}
	}
	var out []string
	for k, child := range obj {
		if prefix != "" {
			k = prefix + "." + k
		}
		out = append(out, jsonLeaves(k, child)...)
	}
	return out
}

// TestMetricsGolden: the series, key paths and metric names of both
// fixtures match the committed golden file.
func TestMetricsGolden(t *testing.T) {
	got := append(metricsShape(t, "node", metricsNode(t)), metricsShape(t, "coordinator", metricsCoordinator(t))...)
	want, err := os.ReadFile("testdata/metrics_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	if g := strings.Join(got, "\n") + "\n"; g != string(want) {
		t.Fatalf("metric renderings differ from testdata/metrics_golden.txt; got:\n%s", g)
	}
}

// TestMetricsParity: every series the snapshot declares appears in all
// three renderings with its declared kind, every numeric JSON value is
// a declared series, and every numeric snapshot field carries a metric
// tag — a field without one fails here rather than going missing from
// Prometheus and msql_stats.metrics.
func TestMetricsParity(t *testing.T) {
	untaggedNumericFields(t, reflect.TypeOf(msql.MetricsSnapshot{}), "MetricsSnapshot")
	for label, db := range map[string]*msql.DB{"node": metricsNode(t), "coordinator": metricsCoordinator(t)} {
		snap := db.Metrics()
		promTypes := map[string]string{}
		for _, line := range strings.Split(snap.Prometheus(), "\n") {
			if f := strings.Fields(line); len(f) == 4 && f[1] == "TYPE" {
				promTypes[f[2]] = f[3]
			}
		}
		var tree map[string]any
		if err := json.Unmarshal([]byte(snap.JSON()), &tree); err != nil {
			t.Fatal(err)
		}
		jsonNumeric := map[string]bool{}
		for _, path := range jsonLeaves("", tree) {
			if _, isString := jsonAt(tree, path).(string); !isString {
				jsonNumeric[path] = true
			}
		}
		tableNames := map[string]bool{}
		for _, row := range db.MustQuery(`SELECT name FROM msql_stats.metrics`).Rows {
			tableNames[row[0].S] = true
		}

		declared := map[string]bool{} // every JSON path a series covers
		names := map[string]bool{}
		snap.Each(func(sr engine.Series) {
			names[sr.Name] = true
			if got := promTypes[sr.Name]; got != sr.Kind {
				t.Errorf("%s: series %s (%s) has Prometheus TYPE %q, want %q", label, sr.Name, sr.Path, got, sr.Kind)
			}
			paths := []string{sr.Path}
			if sr.Hist != nil {
				paths = nil
				for _, sub := range []string{"count", "sum_ns", "p50_ns", "p95_ns", "p99_ns"} {
					paths = append(paths, sr.Path+"."+sub)
				}
			} else if seconds := strings.Contains(sr.Name, "_seconds"); seconds != strings.HasSuffix(sr.Path, "_ns") {
				t.Errorf("%s: series %s renders %s; only *_ns fields render in seconds", label, sr.Name, sr.Path)
			}
			for _, p := range paths {
				declared[p] = true
				if !jsonNumeric[p] {
					t.Errorf("%s: series %s has no JSON value at %s", label, sr.Name, p)
				}
				if !tableNames[p] {
					t.Errorf("%s: series %s has no msql_stats.metrics row %s", label, sr.Name, p)
				}
			}
		})
		for name := range promTypes {
			if !names[name] {
				t.Errorf("%s: Prometheus metric %s is not a declared series", label, name)
			}
		}
		for p := range jsonNumeric {
			if !declared[p] {
				t.Errorf("%s: JSON value %s is not a declared series", label, p)
			}
		}
		for p := range tableNames {
			if !declared[p] {
				t.Errorf("%s: msql_stats.metrics row %s is not a declared series", label, p)
			}
		}
	}
}

// untaggedNumericFields fails t for every numeric field reachable from
// typ (through pointers, structs and map values) that has no metric tag.
func untaggedNumericFields(t *testing.T, typ reflect.Type, where string) {
	t.Helper()
	switch typ.Kind() {
	case reflect.Pointer, reflect.Map:
		untaggedNumericFields(t, typ.Elem(), where)
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if _, ok := f.Tag.Lookup("metric"); ok || f.Tag.Get("json") == "-" {
				continue
			}
			untaggedNumericFields(t, f.Type, where+"."+f.Name)
		}
	case reflect.Int64, reflect.Float64:
		t.Errorf("numeric snapshot field %s has no metric tag", where)
	}
}

// jsonAt returns the decoded JSON value at a dotted path.
func jsonAt(tree map[string]any, path string) any {
	var v any = tree
	for _, k := range strings.Split(path, ".") {
		v = v.(map[string]any)[k]
	}
	return v
}

// TestCoordinatorPathCounters: each query path bumps exactly its own
// counter, and the counts reach the coordinator's Prometheus output.
func TestCoordinatorPathCounters(t *testing.T) {
	coord, oracle, _ := cluster(t, 2)
	execBoth(t, coord, oracle, paperdata.All)
	paths := func() [4]int64 {
		sh := coord.Local().Metrics().Shards
		return [4]int64{sh.LocalQueries, sh.RoutedQueries, sh.ScatterQueries, sh.GatherQueries}
	}
	for i, q := range []string{
		`SELECT 1 + 2 AS three`,
		`SELECT custName, revenue FROM Orders WHERE prodName = 'Happy'`,
		`SELECT prodName, COUNT(*) AS n FROM Orders GROUP BY prodName`,
		`SELECT DISTINCT prodName FROM Orders ORDER BY prodName`,
	} {
		before := paths()
		queryBoth(t, coord, oracle, q)
		want := before
		want[i]++
		if got := paths(); got != want {
			t.Errorf("%s: local/routed/scatter/gather counts %v -> %v, want %v", q, before, got, want)
		}
	}
	prom := coord.Local().Metrics().Prometheus()
	for _, series := range []string{
		"msql_shard_local_queries_total 1", "msql_shard_routed_queries_total 1",
		"msql_shard_scatter_queries_total 1", "msql_shard_gather_queries_total 1",
	} {
		if !strings.Contains(prom, series+"\n") {
			t.Errorf("Prometheus output lacks %q", series)
		}
	}
}
