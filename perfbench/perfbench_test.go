package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"runtime/pprof"
	"testing"
	"time"

	"github.com/measures-sql/msql/msql"
	"github.com/measures-sql/msql/msql/client"
)

func stream(w *workload, seed int64, n int) []op {
	g := newGenerator(requestSeed(seed), w.block)
	out := make([]op, n)
	for i := range out {
		j, o := g.next()
		if j != i {
			panic("generator indices out of order")
		}
		out[i] = o
	}
	return out
}

func TestGeneratorDeterminism(t *testing.T) {
	for _, w := range workloads {
		a, b := stream(w, 7, 300), stream(w, 7, 300)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave different request lists", w.name)
		}
		if c := stream(w, 8, 300); reflect.DeepEqual(a, c) {
			t.Errorf("%s: different seeds gave the same request list", w.name)
		}
	}
}

func TestGeneratorMixPerBlock(t *testing.T) {
	// Every block holds the same multiset of shapes whatever the seed.
	for _, w := range workloads {
		n := len(w.block(randFor(1)))
		count := func(ops []op) map[int]int {
			m := map[int]int{}
			for _, o := range ops {
				m[o.tmpl]++
			}
			return m
		}
		if a, b := count(stream(w, 1, n)), count(stream(w, 2, n)); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: block mix differs across seeds: %v vs %v", w.name, a, b)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted input
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {99, 99}, {100, 100}, {1, 1}, {0.5, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v of 1..100 = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{3, 1, 2}, 50); got != 2 {
		t.Errorf("p50 of {1,2,3} = %v, want 2", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func TestBeyondP99Rule(t *testing.T) {
	for _, c := range []struct{ n, want int }{{0, 0}, {100, 1}, {999, 9}, {1000, 10}, {1099, 10}, {2000, 20}} {
		if got := beyond(c.n, 99); got != c.want {
			t.Errorf("beyond(%d, 99) = %d, want %d", c.n, got, c.want)
		}
	}
	// The rule: a run reports p99 only with at least ten samples beyond it.
	if beyond(999, 99) >= minBeyondP99 || beyond(1000, 99) < minBeyondP99 {
		t.Error("the ten-beyond-p99 threshold falls between 999 and 1000 reads")
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	parent := interval{0, 100}
	cases := []struct {
		children []interval
		want     int64
	}{
		{nil, 100},
		{[]interval{{10, 20}}, 90},
		{[]interval{{10, 30}, {20, 40}}, 70},           // overlap counts once
		{[]interval{{10, 30}, {30, 40}}, 70},           // touching
		{[]interval{{50, 60}, {10, 20}, {15, 55}}, 50}, // unsorted chain
		{[]interval{{-10, 10}, {90, 120}}, 80},         // clipped to the parent
		{[]interval{{20, 30}, {22, 25}}, 90},           // nested
		{[]interval{{200, 300}}, 100},                  // outside
		{[]interval{{0, 100}, {10, 20}}, 0},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("selfTime(%v, %v) = %d, want %d", parent, c.children, got, c.want)
		}
	}
}

func TestOperatorSelf(t *testing.T) {
	op := func(name string, ns int64) span {
		return span{name: name, start: time.Unix(0, 0), end: time.Unix(0, ns)}
	}
	// Sort(100) → Aggregate(80, runs a subquery plan Scan(15)) →
	// Join(50) → Scan(10), Filter(25) → Scan(5).
	ops := []span{
		op("Sort prodName ASC", 100),
		op("Aggregate by [prodName]", 80),
		op("[measure m at ALL]", 0),
		op("Scan Orders", 15),
		op("INNER Join on a = b", 50),
		op("Scan Orders", 10),
		op("Filter revenue > 3", 25),
		op("Scan Orders", 5),
	}
	got := map[string]int64{}
	operatorSelf(ops, got)
	want := map[string]int64{"sort": 20, "aggregate": 15, "join": 15, "scan": 30, "filter": 20}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("operatorSelf = %v, want %v", got, want)
	}
}

func TestCheckerRejectsCorruptedAnswers(t *testing.T) {
	db := msql.Open()
	defer db.Close()
	want := db.MustQuery(`SELECT 'a' AS s, 3 AS i, CAST(1 AS DOUBLE) / 3 AS f, NULL AS n`)
	served := func() *client.Result {
		rows, _ := json.Marshal([][]any{{"a", 3, 1.0 / 3, nil}})
		dec := json.NewDecoder(bytes.NewReader(rows))
		dec.UseNumber()
		var r [][]any
		if err := dec.Decode(&r); err != nil {
			t.Fatal(err)
		}
		types := make([]string, len(want.Types))
		for i, ty := range want.Types {
			types[i] = ty.String()
		}
		return &client.Result{Columns: append([]string(nil), want.Columns...), Types: types, Rows: r}
	}
	if err := sameAnswer(served(), want); err != nil {
		t.Fatalf("identical answers compared unequal: %v", err)
	}
	corrupt := []func(*client.Result){
		func(r *client.Result) { r.Rows[0][0] = "b" },
		func(r *client.Result) { r.Rows[0][1] = json.Number("4") },
		func(r *client.Result) { // one ulp off
			r.Rows[0][2] = json.Number(string(mustJSON(math.Nextafter(1.0/3, 1))))
		},
		func(r *client.Result) { r.Rows[0][3] = json.Number("0") },
		func(r *client.Result) { r.Rows = append(r.Rows, r.Rows[0]) },
		func(r *client.Result) { r.Columns[0] = "t" },
	}
	for i, f := range corrupt {
		r := served()
		f(r)
		if err := sameAnswer(r, want); err == nil {
			t.Errorf("corruption %d was not detected", i)
		}
	}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// TestCorruptedSampleFailsRun checks the whole path from a kept answer
// to the run's verdict: one corrupted sample makes the run incorrect.
func TestCorruptedSampleFailsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the analyst data set")
	}
	w, err := workloadByName("analyst")
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := newOracle(3, w.orders)
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Close()
	p := &phase{}
	for _, o := range stream(w, 3, len(analystTemplates)) {
		res, err := oracle.Query(o.sql)
		if err != nil {
			t.Fatal(err)
		}
		a, err := oracleAnswer(res)
		if err != nil {
			t.Fatal(err)
		}
		p.samples = append(p.samples, sample{o: o, digest: a.digest(), rows: a.rows})
		p.recs = append(p.recs, rec{o: o})
	}
	check := func() *report {
		chk, err := verify(context.Background(), nil, w, 3, []*phase{p})
		if err != nil {
			t.Fatal(err)
		}
		return &report{WrongAnswers: chk.wrong, attempted: len(p.recs)}
	}
	if rep := check(); rep.WrongAnswers != 0 || rep.result()["correct"] != true {
		t.Fatalf("correct samples failed the check: %+v", rep)
	}
	p.samples[2].digest[0] ^= 1
	rep := check()
	if rep.WrongAnswers != 1 || rep.result()["correct"] != false || rep.result()["failed"] != 1 {
		t.Fatalf("a corrupted sample did not fail the run: wrong=%d result=%v", rep.WrongAnswers, rep.result())
	}
}

func TestCPUShares(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiling unavailable:", err)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	x := 0.0
	for time.Now().Before(deadline) {
		for i := 0; i < 1000; i++ {
			x += math.Sqrt(float64(i))
		}
	}
	pprof.StopCPUProfile()
	shares, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, m := range cpuModules {
		sum += shares[m]
	}
	if x > 0 && sum > 0 && math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
}

func TestStackModule(t *testing.T) {
	cases := []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.mallocgc", "github.com/measures-sql/msql/internal/exec.(*evaluator).eval"}, "exec"},
		{[]string{"strconv.ParseInt", "github.com/measures-sql/msql/internal/wire.DecodeParams"}, "wire"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "go_gc"},
		{[]string{"syscall.Syscall", "net.(*conn).Write", "github.com/measures-sql/msql/internal/server.(*Server).serveQuery"}, "go_net"},
		{[]string{"encoding/json.(*decodeState).object", "github.com/measures-sql/msql/msql/client.(*Client).do"}, "go_json"},
		{[]string{"github.com/measures-sql/msql/internal/lexer.(*Lexer).Next"}, "parser"},
		{[]string{"runtime.futex", "runtime.mcall"}, "other"},
	}
	for _, c := range cases {
		if got := stackModule(c.frames); got != c.want {
			t.Errorf("stackModule(%v) = %s, want %s", c.frames, got, c.want)
		}
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the program
// in step: every declared metric is printed, with the declared unit.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to the benchmark:", err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if _, err := workloadByName(w.Name); err != nil {
			t.Error(err)
		}
	}
	if len(b.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("BENCHMARK.json declares %d end-to-end metrics, the program prints %d", len(b.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range b.EndToEnd {
		if m.Name != endToEndMetrics[i].name || m.Unit != endToEndMetrics[i].unit {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %s (%s), program %s (%s)", i, m.Name, m.Unit, endToEndMetrics[i].name, endToEndMetrics[i].unit)
		}
	}
	if len(b.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json declares %d per-layer metrics, the program prints %d", len(b.PerLayer), len(layerMetrics))
	}
	for i, m := range b.PerLayer {
		if m.Name != layerMetrics[i].name || m.Unit != layerMetrics[i].unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json %s (%s), program %s (%s)", i, m.Name, m.Unit, layerMetrics[i].name, layerMetrics[i].unit)
		}
	}
}

func TestAdoptParseSpans(t *testing.T) {
	at := func(ms int64) time.Time { return time.Unix(0, ms*1e6) }
	spans := []span{
		{src: srcServer, reqID: "a", phase: "http", start: at(0), end: at(10)},
		{src: srcServer, reqID: "b", phase: "http", start: at(2), end: at(12)},
		{src: "shard0", reqID: "c", phase: "http", start: at(3), end: at(9)},
		{src: srcEngine + "/" + srcServer, phase: "parse", start: at(3), end: at(4)},   // inside a and b: b started last
		{src: srcEngine + "/" + srcServer, phase: "parse", start: at(1), end: at(2)},   // inside a only
		{src: srcEngine + "/shard0", phase: "parse", start: at(4), end: at(5)},         // shard spans go to shard handlers
		{src: srcEngine + "/" + srcServer, phase: "parse", start: at(11), end: at(13)}, // outside every handler
		{src: srcEngine + "/" + srcServer, reqID: "x", phase: "parse", start: at(1), end: at(2)},
	}
	got := adoptParseSpans(spans)
	want := []string{"b", "a", "c", "", "x"}
	for i, w := range want {
		if id := got[3+i].reqID; id != w {
			t.Errorf("parse span %d adopted by %q, want %q", i, id, w)
		}
	}
}
