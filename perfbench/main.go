// Command perfbench is the served-traffic benchmark: it drives one named
// workload through the real serving stack in one process — msql/client
// → server or dist handler on a loopback listener → engine — and
// prints every metric by name and unit.
//
// Run it from the root of a checkout:
//
//	bash perfbench/run.sh --workload dashboard --seed 7 --seconds 20 --trace 0
//
// With --trace 0 the timed phase runs untraced and the last line of
// standard output carries the end-to-end metrics. With --trace 1 the
// time is split between an untraced phase and a traced one, and the last
// line carries the per-layer metrics from the traced phase plus the
// tracing overhead. The line before it is a full report: environment
// stamp, request counts, workload properties and every metric.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	"github.com/measures-sql/msql/msql"
)

// clients is the closed loop's width: two clients, each sending its
// next request only when the previous one has answered, as a BI front
// end waits for each panel.
const clients = 2

// setupRuns is how many times a run sets its stack up; setup_s is the
// median.
const setupRuns = 3

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: analyst, dashboard or sharded")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed for data and request streams")
	fs.IntVar(&cfg.seconds, "seconds", 20, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1: per-layer run with tracing; 0: end-to-end run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	cfg.trace = trace == 1
	w, err := workloadByName(cfg.workload)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	rep, err := runWorkload(context.Background(), cfg, w)
	if err != nil {
		if rep != nil {
			json.NewEncoder(stderr).Encode(map[string]any{"report": rep})
		}
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"report": rep}); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := enc.Encode(rep.result()); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is everything one run measured.
type report struct {
	Workload string   `json:"workload"`
	Why      string   `json:"why"`
	Seed     int64    `json:"seed"`
	Seconds  int      `json:"seconds"`
	Trace    bool     `json:"trace"`
	Clients  int      `json:"clients"`
	Env      envStamp `json:"env"`

	Reads        int       `json:"reads"`
	Writes       int       `json:"writes"`
	ReadsByShape []int     `json:"reads_by_shape"`
	P50ByShape   []float64 `json:"read_p50_ms_by_shape"`
	// WindowThroughput and WindowP50 are the per-window values whose
	// medians are reported.
	WindowThroughput []float64 `json:"window_throughput_ops"`
	WindowP50        []float64 `json:"window_read_p50_ms"`
	Failed           int       `json:"failed_ops"`
	WrongAnswers     int       `json:"wrong_answers"`
	Checked          int       `json:"checked_answers"`
	BeyondP99        int       `json:"samples_beyond_p99"`
	SetupRuns        []float64 `json:"setup_runs_s"`
	WarmupS          float64   `json:"warmup_s"`
	VerifyS          float64   `json:"verify_s"`
	FirstWrongHint   string    `json:"first_wrong_answer,omitempty"`

	// EndToEnd holds the metrics of the untraced phase; Properties the
	// workload properties optimizations depend on; Layers the traced
	// phase's per-layer metrics.
	EndToEnd   map[string]metric `json:"end_to_end"`
	Properties map[string]metric `json:"properties"`
	Layers     map[string]metric `json:"per_layer,omitempty"`

	attempted int
}

// result is the summary line, the last line of standard output.
func (r *report) result() map[string]any {
	m := map[string]metric{}
	if r.Trace {
		for _, l := range layerMetrics {
			m[l.name] = r.Layers[l.name]
		}
	} else {
		for _, e := range endToEndMetrics {
			m[e.name] = r.EndToEnd[e.name]
		}
	}
	return map[string]any{
		"correct":   r.WrongAnswers == 0 && r.Failed == 0,
		"attempted": r.attempted,
		"failed":    r.Failed + r.WrongAnswers,
		"metrics":   m,
	}
}

// endToEndMetrics are the metrics of the --trace 0 summary line; every
// workload reports all of them. The report line adds failed_frac and,
// on workloads that write, write_p50_ms, write_p99_ms and recovery_s.
var endToEndMetrics = []struct{ name, unit string }{
	{"throughput_ops", "ops/s"},
	{"read_p50_ms", "ms"},
	{"read_p99_ms", "ms"},
	{"live_heap_mb", "MB"},
	{"setup_s", "s"},
}

// rec is one request of a timed phase.
type rec struct {
	o     op
	id    string
	start time.Time
	lat   time.Duration
	err   error
}

// sample is a served answer kept (as a digest) for checking against
// the oracle after the phase.
type sample struct {
	o      op
	digest [32]byte
	rows   int
}

// phase is one timed closed-loop phase.
type phase struct {
	start         time.Time
	elapsed       time.Duration
	recs          []rec
	samples       []sample
	before, after counters
	spans         []span
	cpu           map[string]float64
}

func (p *phase) reads() (lat []float64) {
	for _, r := range p.recs {
		if r.o.kind != opWrite && r.err == nil {
			lat = append(lat, float64(r.lat)/1e6)
		}
	}
	return lat
}

func (p *phase) writes() (lat []float64) {
	for _, r := range p.recs {
		if r.o.kind == opWrite && r.err == nil {
			lat = append(lat, float64(r.lat)/1e6)
		}
	}
	return lat
}

// windows is how many equal slices of a timed phase throughput and
// the read median are measured over; the reported value is the median
// across slices, so a burst of outside load in one slice does not move
// it. p99 needs every sample it can get and is taken over the phase.
const windows = 5

// windowed returns the median over the phase's windows of throughput
// (ops/s) and read p50 (ms); each request belongs to the window its
// start time falls in.
func (p *phase) windowed() (throughput, p50 []float64) {
	width := p.elapsed / windows
	ops := make([]float64, windows)
	lat := make([][]float64, windows)
	for _, r := range p.recs {
		if r.err != nil {
			continue
		}
		w := min(int(r.start.Sub(p.start)/width), windows-1)
		ops[w]++
		if r.o.kind != opWrite {
			lat[w] = append(lat[w], float64(r.lat)/1e6)
		}
	}
	for w := range ops {
		throughput = append(throughput, ops[w]/width.Seconds())
		if len(lat[w]) > 0 {
			p50 = append(p50, percentile(lat[w], 50))
		}
	}
	return throughput, p50
}

// sampled reports whether the answer to request i of the stream is
// kept for checking: the first two blocks (so every template is
// covered) and one request in 25 after that.
func sampled(i, blockLen int) bool { return i < 2*blockLen || i%25 == 0 }

// runPhase drives the closed loop for d and collects what it needs.
func runPhase(ctx context.Context, st *stack, w *workload, gen *generator, d time.Duration, traced bool, tag string) (*phase, error) {
	p := &phase{}
	keepSamples := w.fixedReads == nil
	blockLen := len(w.block(randFor(0)))
	var prof bytes.Buffer
	p.before = st.counters()
	if traced {
		st.setTrace(true)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			st.setTrace(false)
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	perClient := make([][]rec, clients)
	perSamples := make([][]sample, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i, o := gen.next()
				r := rec{o: o, id: fmt.Sprintf("%s-%d", tag, i)}
				r.start = time.Now()
				res, err := st.do(ctx, o, r.id)
				r.lat = time.Since(r.start)
				r.err = err
				if traced {
					st.k.add(span{src: srcClient, reqID: r.id, phase: "client", start: r.start, end: r.start.Add(r.lat)})
				}
				perClient[c] = append(perClient[c], r)
				if keepSamples && err == nil && o.kind != opWrite && sampled(i, blockLen) {
					a, aerr := wireAnswer(res)
					if aerr != nil {
						perClient[c][len(perClient[c])-1].err = aerr
						continue
					}
					perSamples[c] = append(perSamples[c], sample{o: o, digest: a.digest(), rows: a.rows})
				}
			}
		}(c)
	}
	wg.Wait()
	p.start, p.elapsed = start, time.Since(start)
	if traced {
		pprof.StopCPUProfile()
		st.setTrace(false)
		p.spans = st.k.take()
		shares, err := cpuShares(prof.Bytes())
		if err != nil {
			return nil, err
		}
		p.cpu = shares
	}
	p.after = st.counters()
	for c := range perClient {
		p.recs = append(p.recs, perClient[c]...)
		p.samples = append(p.samples, perSamples[c]...)
	}
	sort.Slice(p.recs, func(i, j int) bool { return p.recs[i].start.Before(p.recs[j].start) })
	return p, nil
}

// requestSeed derives the request-stream seed from the run seed, so
// data and requests draw from independent streams.
func requestSeed(seed int64) int64 { return seed*1_000_003 + 17 }

// warmup sends every fixed read once (building lattice nodes and plan
// cache entries), or ten requests from a separate stream; its answers
// are not timed.
func warmup(ctx context.Context, st *stack, w *workload, seed int64) error {
	ops := w.fixedReads
	if ops == nil {
		g := newGenerator(requestSeed(seed)^0x5eed, w.block)
		for i := 0; i < 10; i++ {
			_, o := g.next()
			ops = append(ops, o)
		}
	}
	for i, o := range ops {
		if _, err := st.do(ctx, o, fmt.Sprintf("warm-%d", i)); err != nil {
			return fmt.Errorf("warm-up request %d: %w", i, err)
		}
	}
	return nil
}

func runWorkload(ctx context.Context, cfg config, w *workload) (*report, error) {
	if _, err := os.Stat(filepath.Join("perfbench", "go.mod")); err != nil {
		return nil, errors.New("run from the root of a checkout (perfbench/go.mod not found)")
	}
	rep := &report{
		Workload: w.name, Why: w.why, Seed: cfg.seed, Seconds: cfg.seconds,
		Trace: cfg.trace, Clients: clients, Env: stamp("."),
		EndToEnd: map[string]metric{}, Properties: map[string]metric{},
	}
	work := filepath.Join(".bench_build", "run")
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	k := &sink{}
	var st *stack
	for i := 0; i < setupRuns; i++ {
		dir := dataDir(work, cfg.seed, i)
		runtime.GC()
		t0 := time.Now()
		s, err := w.setup(ctx, cfg.seed, dir, k)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		rep.SetupRuns = append(rep.SetupRuns, time.Since(t0).Seconds())
		if i == setupRuns-1 {
			st = s
			break
		}
		if err := s.close(ctx); err != nil {
			return nil, fmt.Errorf("tear-down: %w", err)
		}
		os.RemoveAll(dir)
	}
	defer func() {
		st.close(ctx)
		if st.dir != "" {
			os.RemoveAll(st.dir)
		}
	}()

	t0 := time.Now()
	if err := warmup(ctx, st, w, cfg.seed); err != nil {
		return nil, err
	}
	rep.WarmupS = time.Since(t0).Seconds()

	gen := newGenerator(requestSeed(cfg.seed), w.block)
	d := time.Duration(cfg.seconds) * time.Second
	var base, traced *phase
	var err error
	if !cfg.trace {
		base, err = runPhase(ctx, st, w, gen, d, false, "run")
	} else {
		base, err = runPhase(ctx, st, w, gen, d/2, false, "base")
		if err == nil {
			traced, err = runPhase(ctx, st, w, gen, d-d/2, true, "traced")
		}
	}
	if err != nil {
		return nil, err
	}
	phases := []*phase{base}
	if traced != nil {
		phases = append(phases, traced)
	}

	// Live heap: after the timed phases and one forced GC. Spans of a
	// traced phase are dropped first so only the system's state counts.
	var spans []span
	if traced != nil {
		spans, traced.spans = traced.spans, nil
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapMB := float64(ms.HeapAlloc) / 1e6
	if traced != nil {
		traced.spans = spans
	}

	t0 = time.Now()
	chk, err := verify(ctx, st, w, cfg.seed, phases)
	if err != nil {
		return nil, fmt.Errorf("verification: %w", err)
	}
	rep.VerifyS = time.Since(t0).Seconds()
	rep.Checked, rep.WrongAnswers, rep.FirstWrongHint = chk.checked, chk.wrong, chk.hint

	for _, p := range phases {
		rep.attempted += len(p.recs)
		for _, r := range p.recs {
			if r.err != nil {
				rep.Failed++
				if rep.FirstWrongHint == "" {
					rep.FirstWrongHint = r.err.Error()
				}
			}
		}
	}
	rep.fill(w, base, heapMB, chk)
	if traced != nil {
		// Span-attributed shares replace the counter-based estimates.
		var props map[string]metric
		rep.Layers, props = layers(base, traced, chk)
		for k, v := range props {
			rep.Properties[k] = v
		}
	} else if rep.BeyondP99 < minBeyondP99 {
		return rep, fmt.Errorf("only %d read samples beyond p99 (need %d): run longer", rep.BeyondP99, minBeyondP99)
	}
	return rep, nil
}

// fill computes the end-to-end metrics and workload properties of the
// untraced phase.
func (rep *report) fill(w *workload, p *phase, heapMB float64, chk *checkResult) {
	reads, writes := p.reads(), p.writes()
	rep.Reads, rep.Writes = len(reads), len(writes)
	var byShape [][]float64
	for _, r := range p.recs {
		if r.o.kind == opWrite || r.err != nil {
			continue
		}
		for len(byShape) <= r.o.tmpl {
			byShape = append(byShape, nil)
		}
		byShape[r.o.tmpl] = append(byShape[r.o.tmpl], float64(r.lat)/1e6)
	}
	for _, l := range byShape {
		p50 := 0.0
		if len(l) > 0 {
			p50 = percentile(l, 50)
		}
		rep.ReadsByShape = append(rep.ReadsByShape, len(l))
		rep.P50ByShape = append(rep.P50ByShape, p50)
	}
	rep.BeyondP99 = beyond(len(reads), 99)
	rep.WindowThroughput, rep.WindowP50 = p.windowed()
	e := rep.EndToEnd
	e["throughput_ops"] = metric{median(rep.WindowThroughput), "ops/s"}
	e["read_p50_ms"] = metric{median(rep.WindowP50), "ms"}
	e["read_p99_ms"] = metric{percentile(reads, 99), "ms"}
	e["setup_s"] = metric{median(rep.SetupRuns), "s"}
	e["live_heap_mb"] = metric{heapMB, "MB"}
	e["failed_frac"] = metric{ratio(float64(rep.Failed+rep.WrongAnswers), float64(rep.attempted)), "ratio"}
	if len(writes) > 0 {
		e["write_p50_ms"] = metric{percentile(writes, 50), "ms"}
		e["write_p99_ms"] = metric{percentile(writes, 99), "ms"}
	}
	if chk.recoveryS > 0 {
		e["recovery_s"] = metric{chk.recoveryS, "s"}
	}

	d := p.after.minus(p.before)
	nReads := float64(len(reads))
	distinct := map[string]bool{}
	for _, r := range p.recs {
		if r.o.kind != opWrite {
			distinct[r.o.key()] = true
		}
	}
	pr := rep.Properties
	pr["distinct_read_frac"] = metric{ratio(float64(len(distinct)), nReads), "ratio"}
	pr["lattice_hits_per_read"] = metric{ratio(float64(d.rollup.Hits), nReads), "count"}
	pr["memo_read_frac"] = metric{ratio(float64(d.plan.MemoHits), nReads), "ratio"}
	pr["plan_cache_read_frac"] = metric{ratio(float64(d.plan.Hits), nReads), "ratio"}
	pr["read_frac"] = metric{ratio(nReads, nReads+float64(len(writes))), "ratio"}
	pr["scanned_per_returned"] = metric{ratio(float64(d.eng.RowsScanned), float64(d.eng.RowsReturned)), "ratio"}
	pr["shipped_kb_per_read"] = metric{ratio(float64(d.shippedBytes())/1024, nReads), "KB"}
}

// counters is a snapshot of every public counter the stack exposes.
type counters struct {
	plan   msql.PlanCacheCounters
	rollup msql.RollupStats
	wal    msql.WALStats
	srv    msql.ServerCounters
	eng    msql.MetricsSnapshot
	shards msql.ShardCounters
	bytes  map[string]int64
	alloc  uint64  // runtime total allocated bytes
	gcCPU  float64 // runtime GC CPU seconds
	allCPU float64 // runtime total CPU seconds
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func (s *stack) counters() counters {
	c := counters{bytes: map[string]int64{}}
	for _, db := range s.sessions() {
		pc := db.PlanCacheStats()
		c.plan.Hits += pc.Hits
		c.plan.Misses += pc.Misses
		c.plan.Bypasses += pc.Bypasses
		c.plan.Invalidations += pc.Invalidations
		c.plan.MemoHits += pc.MemoHits
		m := db.Metrics()
		c.eng.RowsScanned += m.RowsScanned
		c.eng.RowsReturned += m.RowsReturned
		c.eng.SubqueryEvals += m.SubqueryEvals
		c.eng.CacheHits += m.CacheHits
		if m.Server != nil {
			c.srv.Accepted += m.Server.Accepted
			c.srv.Shed += m.Server.Shed
		}
	}
	if s.db != nil {
		c.rollup = s.db.RollupStats()
		if s.db.Durable() {
			c.wal = s.db.WALStats()
		}
	}
	if s.coord != nil {
		if sc := s.coord.Local().Metrics().Shards; sc != nil {
			c.shards = *sc
		}
	}
	for src, n := range s.bytes {
		c.bytes[src] = n.Load()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.alloc = ms.TotalAlloc
	metrics.Read(cpuSamples)
	c.gcCPU = cpuSamples[0].Value.Float64()
	c.allCPU = cpuSamples[1].Value.Float64()
	return c
}

// minus returns the counter deltas c − o.
func (c counters) minus(o counters) counters {
	d := counters{bytes: map[string]int64{}}
	d.plan.Hits = c.plan.Hits - o.plan.Hits
	d.plan.Misses = c.plan.Misses - o.plan.Misses
	d.plan.Bypasses = c.plan.Bypasses - o.plan.Bypasses
	d.plan.Invalidations = c.plan.Invalidations - o.plan.Invalidations
	d.plan.MemoHits = c.plan.MemoHits - o.plan.MemoHits
	d.rollup.Hits = c.rollup.Hits - o.rollup.Hits
	d.rollup.Misses = c.rollup.Misses - o.rollup.Misses
	d.rollup.Rebuilds = c.rollup.Rebuilds - o.rollup.Rebuilds
	d.rollup.IncrementalRows = c.rollup.IncrementalRows - o.rollup.IncrementalRows
	d.wal.Fsyncs = c.wal.Fsyncs - o.wal.Fsyncs
	d.wal.AppendBytes = c.wal.AppendBytes - o.wal.AppendBytes
	d.srv.Accepted = c.srv.Accepted - o.srv.Accepted
	d.srv.Shed = c.srv.Shed - o.srv.Shed
	d.eng.RowsScanned = c.eng.RowsScanned - o.eng.RowsScanned
	d.eng.RowsReturned = c.eng.RowsReturned - o.eng.RowsReturned
	d.eng.SubqueryEvals = c.eng.SubqueryEvals - o.eng.SubqueryEvals
	d.eng.CacheHits = c.eng.CacheHits - o.eng.CacheHits
	d.shards.Retries = c.shards.Retries - o.shards.Retries
	d.shards.Hedges = c.shards.Hedges - o.shards.Hedges
	d.shards.Scatters = c.shards.Scatters - o.shards.Scatters
	for src, n := range c.bytes {
		d.bytes[src] = n - o.bytes[src]
	}
	d.alloc = c.alloc - o.alloc
	d.gcCPU = c.gcCPU - o.gcCPU
	d.allCPU = c.allCPU - o.allCPU
	return d
}

// shippedBytes is what crossed the wire for reads: shard responses on
// the sharded stack, server responses otherwise.
func (c counters) shippedBytes() int64 {
	var shard, front int64
	for src, n := range c.bytes {
		if src == srcServer || src == srcCoord {
			front += n
		} else {
			shard += n
		}
	}
	if shard > 0 {
		return shard
	}
	return front
}
