// Session-level metrics: cumulative counters across every query a
// session runs, exportable as expvar-style JSON, Prometheus text and
// the msql_stats.metrics table.
//
// MetricsSnapshot is the only declaration of a series. Every numeric
// field carries a `metric:"name,kind,help"` tag beside its json tag
// (kind is counter, gauge or histogram); Each walks the tags, and
// Prometheus() and msql_stats.metrics both render what it yields, while
// JSON() is plain encoding/json. A subsystem adds a metric by adding a
// tagged field to its counters struct.
package engine

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/measures-sql/msql/internal/exec"
	"github.com/measures-sql/msql/internal/rollup"
	"github.com/measures-sql/msql/internal/wal"
)

// Metrics accumulates session-wide execution counters. All updates are
// atomic (or mutex-guarded for the per-strategy map), so concurrent
// queries on one session aggregate exactly.
type Metrics struct {
	queries      atomic.Int64
	errors       atomic.Int64
	canceled     atomic.Int64
	timeouts     atomic.Int64
	limitTrips   atomic.Int64
	rowsReturned atomic.Int64
	// exec folds every finished statement's executor counters.
	exec exec.Stats

	// planHist / execHist distribute per-statement planning and
	// execution latencies.
	planHist exec.Histogram
	execHist exec.Histogram

	mu         sync.Mutex
	byStrategy map[string]*stratCounters
	// serverFn, when set, supplies a point-in-time copy of the serving
	// layer's counters (the msqld front end registers itself here) so
	// one snapshot covers both engine and server.
	serverFn func() ServerCounters
	// shardFn supplies the distributed coordinator's counters (a
	// dist.Coordinator registers itself here) so one snapshot covers the
	// whole scatter-gather failure envelope.
	shardFn func() ShardCounters
}

// ShardCounters is the distributed coordinator's slice of a metrics
// snapshot: the scatter-gather failure envelope and the path each query
// took. ShardsTotal and BreakersOpen are gauges; the rest are
// cumulative.
type ShardCounters struct {
	Scatters     int64 `json:"scatters" metric:"msql_shard_scatters_total,counter,Shard fan-out calls issued by the coordinator."`
	Retries      int64 `json:"retries" metric:"msql_shard_retries_total,counter,Shard call retry attempts beyond the first try."`
	Hedges       int64 `json:"hedges" metric:"msql_shard_hedges_total,counter,Hedged requests sent to a second endpoint."`
	Failovers    int64 `json:"failovers" metric:"msql_shard_failovers_total,counter,Shard calls answered by a non-primary endpoint."`
	BreakerOpens int64 `json:"breaker_opens" metric:"msql_shard_breaker_open_total,counter,Circuit-breaker closed-to-open transitions."`
	ShardErrors  int64 `json:"shard_errors" metric:"msql_shard_errors_total,counter,Queries failed with a structured shard-unavailable error."`
	ShardsTotal  int64 `json:"shards_total" metric:"msql_shard_count,gauge,Shards in the topology."`
	BreakersOpen int64 `json:"breakers_open" metric:"msql_shard_breakers_open,gauge,Endpoints whose breaker is currently open."`
	// The per-path query counts: routed to one shard, scattered with an
	// exact merge, gathered to a scratch session, or answered locally
	// because the query reads no sharded table.
	RoutedQueries  int64 `json:"routed_queries" metric:"msql_shard_routed_queries_total,counter,Queries routed whole to one shard."`
	ScatterQueries int64 `json:"scatter_queries" metric:"msql_shard_scatter_queries_total,counter,Queries answered by scatter and exact merge."`
	GatherQueries  int64 `json:"gather_queries" metric:"msql_shard_gather_queries_total,counter,Queries answered by gathering shard rows into a scratch session."`
	LocalQueries   int64 `json:"local_queries" metric:"msql_shard_local_queries_total,counter,Queries reading no sharded table, answered by the coordinator."`
}

// SetShardSource registers (or with nil removes) the distributed
// coordinator's counter source; snapshots call it to fill the Shards
// section.
func (m *Metrics) SetShardSource(fn func() ShardCounters) {
	m.mu.Lock()
	m.shardFn = fn
	m.mu.Unlock()
}

// ServerCounters is the serving layer's slice of a metrics snapshot:
// admission-control and drain counters published by a query server
// sitting in front of the session. Inflight, Queued and DrainNs are
// gauges; the rest are cumulative counters.
type ServerCounters struct {
	Inflight    int64 `json:"inflight" metric:"msql_server_inflight,gauge,Queries executing right now."`
	Queued      int64 `json:"queued" metric:"msql_server_queued,gauge,Requests waiting for an execution slot."`
	Accepted    int64 `json:"accepted" metric:"msql_server_requests_total,counter,Query requests received."`
	Admitted    int64 `json:"admitted" metric:"msql_server_admitted_total,counter,Requests admitted to execution."`
	Shed        int64 `json:"shed" metric:"msql_server_shed_total,counter,Requests shed by overload control (HTTP 429)."`
	Rejected    int64 `json:"rejected_draining" metric:"msql_server_rejected_draining_total,counter,Requests rejected while draining (HTTP 503)."`
	Drained     int64 `json:"drained" metric:"msql_server_drained_total,counter,Inflight queries completed during graceful drain."`
	DrainKilled int64 `json:"drain_killed" metric:"msql_server_drain_killed_total,counter,Inflight queries canceled at the drain deadline."`
	Panics      int64 `json:"panics" metric:"msql_server_panics_total,counter,Request handler panics recovered."`
	DrainNs     int64 `json:"drain_ns" metric:"msql_server_drain_seconds,gauge,Time the last graceful drain took."`
}

// SetServerSource registers (or with nil removes) the serving layer's
// counter source; snapshots call it to fill the Server section.
func (m *Metrics) SetServerSource(fn func() ServerCounters) {
	m.mu.Lock()
	m.serverFn = fn
	m.mu.Unlock()
}

// stratCounters is the per-strategy slice of the registry.
type stratCounters struct {
	Queries int64 `json:"queries" metric:"msql_strategy_queries_total,counter,Queries executed per strategy."`
	Errors  int64 `json:"errors" metric:"msql_strategy_errors_total,counter,Failed statements per strategy."`
	PlanNs  int64 `json:"plan_ns" metric:"msql_plan_seconds_total,counter,Time spent binding and optimizing, per strategy."`
	ExecNs  int64 `json:"exec_ns" metric:"msql_exec_seconds_total,counter,Time spent executing, per strategy."`
}

func newMetrics() *Metrics {
	return &Metrics{byStrategy: map[string]*stratCounters{}}
}

// strategyLocked returns the strategy's counters, creating them; the
// caller holds m.mu.
func (m *Metrics) strategyLocked(strategy string) *stratCounters {
	sc := m.byStrategy[strategy]
	if sc == nil {
		sc = &stratCounters{}
		m.byStrategy[strategy] = sc
	}
	return sc
}

// recordQuery folds one finished query's executor counters into the
// registry.
func (m *Metrics) recordQuery(strategy string, rows int, st exec.Stats, planNs, execNs int64) {
	m.queries.Add(1)
	m.rowsReturned.Add(int64(rows))
	m.exec.Add(st)
	m.planHist.Observe(planNs)
	m.execHist.Observe(execNs)
	m.mu.Lock()
	sc := m.strategyLocked(strategy)
	sc.Queries++
	sc.PlanNs += planNs
	sc.ExecNs += execNs
	m.mu.Unlock()
}

// recordOutcome folds one failed statement into the registry,
// classifying cancellations, timeouts, and resource-limit trips by
// their error code, and attributing the error to the strategy that ran
// the statement (so "memo" failures are distinguishable from "naive"
// ones in the per-strategy series).
func (m *Metrics) recordOutcome(strategy string, err error) {
	if err == nil {
		return
	}
	m.errors.Add(1)
	switch {
	case errors.Is(err, exec.CodeCanceled):
		m.canceled.Add(1)
	case errors.Is(err, exec.CodeTimeout):
		m.timeouts.Add(1)
	case errors.Is(err, exec.CodeResourceExhausted):
		m.limitTrips.Add(1)
	}
	m.mu.Lock()
	m.strategyLocked(strategy).Errors++
	m.mu.Unlock()
}

// MetricsSnapshot is a point-in-time copy of the registry and of every
// subsystem section. Planning and execution time totals are the
// latency histograms' sums.
type MetricsSnapshot struct {
	Queries         int64                    `json:"queries" metric:"msql_queries_total,counter,Queries executed."`
	Errors          int64                    `json:"errors" metric:"msql_query_errors_total,counter,Queries that returned an error."`
	Canceled        int64                    `json:"canceled" metric:"msql_queries_canceled_total,counter,Statements ended by caller cancellation."`
	Timeouts        int64                    `json:"timeouts" metric:"msql_query_timeouts_total,counter,Statements ended by a deadline or Limits.Timeout."`
	LimitTrips      int64                    `json:"limit_trips" metric:"msql_limit_trips_total,counter,Statements ended by a resource governor limit."`
	RowsReturned    int64                    `json:"rows_returned" metric:"msql_rows_returned_total,counter,Rows returned to clients."`
	RowsScanned     int64                    `json:"rows_scanned" metric:"msql_rows_scanned_total,counter,Rows produced by Scan operators."`
	SubqueryEvals   int64                    `json:"subquery_evals" metric:"msql_subquery_evals_total,counter,Actual subquery plan executions."`
	CacheHits       int64                    `json:"cache_hits" metric:"msql_subquery_cache_hits_total,counter,Subquery evaluations served from the memo cache."`
	CacheHitRatio   float64                  `json:"cache_hit_ratio" metric:"msql_cache_hit_ratio,gauge,Fraction of subquery evaluations served from cache."`
	ParallelFanouts int64                    `json:"parallel_fanouts" metric:"msql_parallel_fanouts_total,counter,Operator executions that fanned out to multiple workers."`
	VecBatches      int64                    `json:"vec_batches" metric:"msql_vec_batches_total,counter,Columnar batches processed by the vectorized engine."`
	VecKernelRows   int64                    `json:"vec_kernel_rows" metric:"msql_vec_kernel_rows_total,counter,Rows expression nodes processed in typed loops over unboxed columns."`
	VecFallbackRows int64                    `json:"vec_fallback_rows" metric:"msql_vec_fallback_rows_total,counter,Rows expression nodes processed one boxed value at a time (row evaluator, CAST, boxed loops)."`
	PlanLatency     exec.HistogramSnapshot   `json:"plan_latency" metric:"msql_plan_duration_seconds,histogram,Per-statement planning latency."`
	ExecLatency     exec.HistogramSnapshot   `json:"exec_latency" metric:"msql_exec_duration_seconds,histogram,Per-statement execution latency."`
	ByStrategy      map[string]stratCounters `json:"by_strategy" label:"strategy"`
	// PlanCache carries the prepared-statement plan cache's counters.
	PlanCache PlanCacheCounters `json:"plan_cache"`
	// Server carries the serving layer's counters when a query server
	// has registered itself (SetServerSource); nil otherwise.
	Server *ServerCounters `json:"server,omitempty"`
	// Storage carries the durability layer's counters when the session
	// writes through a WAL; nil otherwise.
	Storage *wal.Stats `json:"storage,omitempty"`
	// Shards carries the distributed coordinator's counters when one has
	// registered itself (SetShardSource); nil otherwise.
	Shards *ShardCounters `json:"shards,omitempty"`
	// Rollups carries the rollup lattice's counters when rollups are
	// enabled; nil otherwise.
	Rollups *rollup.Counters `json:"rollups,omitempty"`
}

// snapshot copies the registry and the external sections; the session
// adds its own subsystems (Session.MetricsSnapshot).
func (m *Metrics) snapshot() MetricsSnapshot {
	st := m.exec.Snapshot()
	s := MetricsSnapshot{
		Queries:         m.queries.Load(),
		Errors:          m.errors.Load(),
		Canceled:        m.canceled.Load(),
		Timeouts:        m.timeouts.Load(),
		LimitTrips:      m.limitTrips.Load(),
		RowsReturned:    m.rowsReturned.Load(),
		RowsScanned:     st.RowsScanned,
		SubqueryEvals:   st.SubqueryEvals,
		CacheHits:       st.SubqueryCacheHits,
		ParallelFanouts: st.ParallelFanouts,
		VecBatches:      st.VecBatches,
		VecKernelRows:   st.VecKernelRows,
		VecFallbackRows: st.VecFallbackRows,
		PlanLatency:     m.planHist.Snapshot(),
		ExecLatency:     m.execHist.Snapshot(),
		ByStrategy:      map[string]stratCounters{},
	}
	if total := s.SubqueryEvals + s.CacheHits; total > 0 {
		s.CacheHitRatio = float64(s.CacheHits) / float64(total)
	}
	m.mu.Lock()
	for k, v := range m.byStrategy {
		s.ByStrategy[k] = *v
	}
	serverFn, shardFn := m.serverFn, m.shardFn
	m.mu.Unlock()
	if serverFn != nil {
		sc := serverFn()
		s.Server = &sc
	}
	if shardFn != nil {
		sh := shardFn()
		s.Shards = &sh
	}
	return s
}

// Series is one series of a snapshot, as Each yields it.
type Series struct {
	// Path is the dotted JSON key path (plan_cache.hits,
	// by_strategy.memo.queries), also the msql_stats.metrics name.
	Path string
	// Name, Kind and Help come from the field's metric tag.
	Name, Kind, Help string
	// Labels is the rendered Prometheus label set without braces
	// (strategy="memo"), empty for unlabeled series.
	Labels string
	// Value is the field's JSON value (nanoseconds for *_ns paths);
	// Hist is set instead for histograms.
	Value float64
	Hist  *exec.HistogramSnapshot
}

// Each calls fn for every series of the snapshot in declaration order:
// fields with a metric tag are series, nil sections are skipped, other
// structs are walked, and map entries are walked in key order with the
// map field's label tag naming the key.
func (s MetricsSnapshot) Each(fn func(Series)) {
	eachSeries(reflect.ValueOf(s), "", "", fn)
}

func eachSeries(v reflect.Value, path, labels string, fn func(Series)) {
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		f, fv := t.Field(i), v.Field(i)
		key, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if path != "" {
			key = path + "." + key
		}
		if tag, ok := f.Tag.Lookup("metric"); ok {
			sr := Series{Path: key, Labels: labels}
			var rest string
			sr.Name, rest, _ = strings.Cut(tag, ",")
			sr.Kind, sr.Help, _ = strings.Cut(rest, ",")
			switch x := fv.Interface().(type) {
			case exec.HistogramSnapshot:
				sr.Hist = &x
			case int64:
				sr.Value = float64(x)
			case float64:
				sr.Value = x
			}
			fn(sr)
			continue
		}
		switch fv.Kind() {
		case reflect.Pointer:
			if !fv.IsNil() {
				eachSeries(fv.Elem(), key, labels, fn)
			}
		case reflect.Struct:
			eachSeries(fv, key, labels, fn)
		case reflect.Map:
			keys := fv.MapKeys()
			sort.Slice(keys, func(a, b int) bool { return keys[a].String() < keys[b].String() })
			for _, k := range keys {
				eachSeries(fv.MapIndex(k), key+"."+k.String(), fmt.Sprintf("%s=%q", f.Tag.Get("label"), k.String()), fn)
			}
		}
	}
}

// JSON renders the snapshot as expvar-style indented JSON.
func (s MetricsSnapshot) JSON() string {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return "{}"
	}
	return string(b)
}

// Prometheus renders the snapshot in the Prometheus text exposition
// format: one HELP/TYPE block per metric name, its series in Each
// order, *_ns values in seconds.
func (s MetricsSnapshot) Prometheus() string {
	var names []string
	byName := map[string][]Series{}
	s.Each(func(sr Series) {
		if _, seen := byName[sr.Name]; !seen {
			names = append(names, sr.Name)
		}
		byName[sr.Name] = append(byName[sr.Name], sr)
	})
	var sb strings.Builder
	for _, name := range names {
		group := byName[name]
		fmt.Fprintf(&sb, "# HELP %s %s\n# TYPE %s %s\n", name, group[0].Help, name, group[0].Kind)
		for _, sr := range group {
			if h := sr.Hist; h != nil {
				h.EachBucket(func(upperNs, cum int64) {
					fmt.Fprintf(&sb, "%s_bucket{le=\"%g\"} %d\n", name, float64(upperNs)/1e9, cum)
				})
				fmt.Fprintf(&sb, "%s_bucket{le=\"+Inf\"} %d\n", name, h.Count)
				fmt.Fprintf(&sb, "%s_sum %g\n", name, float64(h.SumNs)/1e9)
				fmt.Fprintf(&sb, "%s_count %d\n", name, h.Count)
				continue
			}
			v := sr.Value
			if strings.HasSuffix(sr.Path, "_ns") {
				v /= 1e9
			}
			series := name
			if sr.Labels != "" {
				series += "{" + sr.Labels + "}"
			}
			fmt.Fprintf(&sb, "%s %s\n", series, strconv.FormatFloat(v, 'f', -1, 64))
		}
	}
	return sb.String()
}
