package main

// Per-layer metrics of a traced phase. Times are per read (per write
// for dist.apply_us), in microseconds, summed over every span of the
// layer the read caused; counts are per read unless named per write.

import (
	"strconv"
	"strings"
)

// layerMetrics lists every per-layer metric in output order.
var layerMetrics = []struct{ name, unit string }{
	{"client.transport_us", "us"},
	{"server.self_us", "us"},
	{"server.response_kb", "KB"},
	{"server.shed_frac", "ratio"},
	{"parser.parse_us", "us"},
	{"binder.bind_us", "us"},
	{"optimizer.optimize_us", "us"},
	{"core.measure_subqueries", "count"},
	{"optimizer.winmagic_rewrites", "count"},
	{"exec.subquery_evals", "count"},
	{"exec.context_memo_hit_frac", "ratio"},
	{"engine.plan_cache_hit_frac", "ratio"},
	{"engine.memo_hit_frac", "ratio"},
	{"engine.invalidations_per_write", "count"},
	{"rollup.hit_frac", "ratio"},
	{"rollup.rebuilds_per_write", "count"},
	{"rollup.incremental_rows_per_write", "count"},
	{"wal.fsyncs_per_write", "count"},
	{"wal.bytes_per_row", "B"},
	{"wal.recovered_records", "count"},
	{"exec.execute_us", "us"},
	{"exec.scanned_per_returned", "ratio"},
	{"exec.scan_us", "us"},
	{"exec.filter_us", "us"},
	{"exec.aggregate_us", "us"},
	{"exec.join_us", "us"},
	{"exec.window_us", "us"},
	{"exec.sort_us", "us"},
	{"exec.project_us", "us"},
	{"vec.kernel_row_frac", "ratio"},
	{"vec.batches", "count"},
	{"dist.shard_us", "us"},
	{"dist.coord_self_us", "us"},
	{"dist.calls_per_read", "count"},
	{"dist.routed_frac", "ratio"},
	{"dist.scatter_frac", "ratio"},
	{"dist.gather_frac", "ratio"},
	{"dist.shipped_kb_per_read", "KB"},
	{"dist.retries_per_read", "count"},
	{"dist.hedges_per_read", "count"},
	{"dist.apply_us", "us"},
	{"go.alloc_kb_per_op", "KB"},
	{"go.gc_cpu_frac", "ratio"},
	{"cpu.storage", "ratio"},
	{"cpu.vec", "ratio"},
	{"cpu.exec", "ratio"},
	{"cpu.fn", "ratio"},
	{"cpu.sqltypes", "ratio"},
	{"cpu.parser", "ratio"},
	{"cpu.binder", "ratio"},
	{"cpu.optimizer", "ratio"},
	{"cpu.engine", "ratio"},
	{"cpu.rollup", "ratio"},
	{"cpu.wal", "ratio"},
	{"cpu.server", "ratio"},
	{"cpu.wire", "ratio"},
	{"cpu.dist", "ratio"},
	{"cpu.client", "ratio"},
	{"cpu.go_gc", "ratio"},
	{"cpu.go_net", "ratio"},
	{"cpu.go_json", "ratio"},
	{"cpu.other", "ratio"},
	{"trace.overhead_frac", "ratio"},
	{"write.p50_ms", "ms"},
	{"write.p99_ms", "ms"},
	{"recovery.recovery_s", "s"},
}

// reqSpans are one request's spans, by where they came from.
type reqSpans struct {
	client  *span
	front   []span            // server or coordinator handler
	shards  map[string][]span // shard handler spans by source
	engine  map[string][]span // engine spans by source
	coordSh []span            // the coordinator's shard calls
}

func attrInt(s span, key string) int64 {
	n, _ := strconv.ParseInt(s.attrs[key], 10, 64)
	return n
}

func intervals(spans []span, keep func(span) bool) []interval {
	var out []interval
	for _, s := range spans {
		if keep(s) {
			out = append(out, ivOf(s))
		}
	}
	return out
}

// lifecycle keeps the engine's statement phases, whose intervals are
// the engine's share of a handler span.
func lifecycle(s span) bool {
	switch s.phase {
	case "parse", "bind", "optimize", "execute":
		return true
	}
	return false
}

// layers computes the per-layer metrics of a traced phase, and the
// shares of reads the lattice, the plan cache and its result memo
// answered, which only the spans can attribute read by read.
func layers(base, tr *phase, chk *checkResult) (out, props map[string]metric) {
	byReq := map[string]*reqSpans{}
	get := func(id string) *reqSpans {
		r := byReq[id]
		if r == nil {
			r = &reqSpans{shards: map[string][]span{}, engine: map[string][]span{}}
			byReq[id] = r
		}
		return r
	}
	for i := range adoptParseSpans(tr.spans) {
		s := tr.spans[i]
		r := get(s.reqID)
		switch {
		case s.src == srcClient:
			r.client = &tr.spans[i]
		case s.src == srcServer || s.src == srcCoord:
			r.front = append(r.front, s)
		case strings.HasPrefix(s.src, srcShard):
			r.shards[s.src] = append(r.shards[s.src], s)
		case s.src == srcCoordEng && s.phase == "shard":
			r.coordSh = append(r.coordSh, s)
		default:
			r.engine[s.src] = append(r.engine[s.src], s)
		}
	}

	sum := map[string]float64{}
	opSelf := map[string]int64{}
	var reads, writes float64
	var evals, hits, scanned, returned, kernel, fallback float64
	var routed, scatter, gather float64
	var latticeReads, cachedReads, memoReads float64
	for _, rec := range tr.recs {
		r := byReq[rec.id]
		if r == nil || r.client == nil {
			continue
		}
		if rec.o.kind == opWrite {
			writes++
			for _, ss := range r.shards {
				for _, s := range ss {
					if s.name == "/apply" {
						sum["dist.apply_us"] += us(int64(s.dur()))
					}
				}
			}
			continue
		}
		reads++
		var fronts []interval
		for _, f := range r.front {
			fronts = append(fronts, ivOf(f))
			sum["server.response_kb"] += float64(f.bytes) / 1024
			if f.src == srcCoord {
				sh := intervals(r.coordSh, func(span) bool { return true })
				sum["dist.coord_self_us"] += us(selfTime(ivOf(f), sh))
			} else {
				sum["server.self_us"] += us(selfTime(ivOf(f), intervals(r.engine[srcEngine+"/"+srcServer], lifecycle)))
			}
		}
		sum["client.transport_us"] += us(selfTime(ivOf(*r.client), fronts))
		for src, ss := range r.shards {
			eng := intervals(r.engine[srcEngine+"/"+src], lifecycle)
			for _, s := range ss {
				sum["server.self_us"] += us(selfTime(ivOf(s), eng))
				sum["dist.shipped_kb_per_read"] += float64(s.bytes) / 1024
			}
		}
		path := ""
		for _, s := range r.coordSh {
			sum["dist.shard_us"] += us(int64(s.dur()))
			sum["dist.calls_per_read"]++
			switch s.name {
			case "route":
				path = "routed"
			case "partial":
				path = "scatter"
			case "gather":
				path = "gather"
			}
		}
		switch path {
		case "routed":
			routed++
		case "scatter":
			scatter++
		case "gather":
			gather++
		}
		executed, lattice, cached := false, false, false
		for _, es := range r.engine {
			var ops []span
			for _, s := range es {
				switch s.phase {
				case "parse":
					sum["parser.parse_us"] += us(int64(s.dur()))
				case "bind":
					sum["binder.bind_us"] += us(int64(s.dur()))
				case "optimize":
					if s.name == "optimize" {
						sum["optimizer.optimize_us"] += us(int64(s.dur()))
					} else if s.name == "winmagic" {
						sum["optimizer.winmagic_rewrites"] += float64(attrInt(s, "rewrites"))
					}
				case "expand":
					if s.attrs["strategy"] == "subquery" {
						sum["core.measure_subqueries"]++
					}
				case "execute":
					executed = true
					lattice = lattice || attrInt(s, "rollup_hits") > 0
					cached = cached || s.attrs["cached"] == "true"
					sum["exec.execute_us"] += us(int64(s.dur()))
					evals += float64(attrInt(s, "evals"))
					hits += float64(attrInt(s, "hits"))
					scanned += float64(attrInt(s, "scanned"))
					returned += float64(attrInt(s, "rows"))
					kernel += float64(attrInt(s, "kernel_rows"))
					fallback += float64(attrInt(s, "fallback_rows"))
					sum["vec.batches"] += float64(attrInt(s, "batches"))
				case "operator":
					ops = append(ops, s)
				}
			}
			operatorSelf(ops, opSelf)
		}
		// A prepared read answered from the result memo never reaches
		// the executor, so it has no execute span.
		memo := rec.o.kind == opPrepared && rec.err == nil && !executed
		if lattice {
			latticeReads++
		}
		if cached || memo {
			cachedReads++
		}
		if memo {
			memoReads++
		}
	}
	for _, k := range opKinds {
		sum["exec."+k+"_us"] = us(opSelf[k])
	}

	out = map[string]metric{}
	units := map[string]string{}
	for _, l := range layerMetrics {
		units[l.name] = l.unit
		out[l.name] = metric{0, l.unit}
	}
	set := func(name string, v float64) { out[name] = metric{v, units[name]} }
	for name, v := range sum {
		if name == "dist.apply_us" {
			set(name, ratio(v, writes))
		} else {
			set(name, ratio(v, reads))
		}
	}
	d := tr.after.minus(tr.before)
	set("exec.subquery_evals", ratio(evals, reads))
	set("exec.context_memo_hit_frac", ratio(hits, evals+hits))
	set("exec.scanned_per_returned", ratio(scanned, returned))
	set("vec.kernel_row_frac", ratio(kernel, kernel+fallback))
	set("server.shed_frac", ratio(float64(d.srv.Shed), float64(d.srv.Accepted)))
	lookups := float64(d.plan.Hits + d.plan.Misses + d.plan.Bypasses)
	set("engine.plan_cache_hit_frac", ratio(float64(d.plan.Hits), lookups))
	set("engine.memo_hit_frac", ratio(float64(d.plan.MemoHits), lookups))
	set("engine.invalidations_per_write", ratio(float64(d.plan.Invalidations), writes))
	set("rollup.hit_frac", ratio(float64(d.rollup.Hits), float64(d.rollup.Hits+d.rollup.Misses)))
	set("rollup.rebuilds_per_write", ratio(float64(d.rollup.Rebuilds), writes))
	set("rollup.incremental_rows_per_write", ratio(float64(d.rollup.IncrementalRows), writes))
	set("wal.fsyncs_per_write", ratio(float64(d.wal.Fsyncs), writes))
	set("wal.bytes_per_row", ratio(float64(d.wal.AppendBytes), writes*batchRows))
	set("wal.recovered_records", float64(chk.recovered))
	set("dist.routed_frac", ratio(routed, reads))
	set("dist.scatter_frac", ratio(scatter, reads))
	set("dist.gather_frac", ratio(gather, reads))
	set("dist.retries_per_read", ratio(float64(d.shards.Retries), reads))
	set("dist.hedges_per_read", ratio(float64(d.shards.Hedges), reads))
	for m, v := range tr.cpu {
		set("cpu."+m, v)
	}

	// From the untraced phase of the same run: allocation, GC, write
	// latency, and the tracing overhead on mean read latency.
	bd := base.after.minus(base.before)
	set("go.alloc_kb_per_op", ratio(float64(bd.alloc)/1024, float64(len(base.recs))))
	set("go.gc_cpu_frac", ratio(bd.gcCPU, bd.allCPU))
	set("trace.overhead_frac", ratio(mean(tr.reads()), mean(base.reads()))-1)
	if wl := base.writes(); len(wl) > 0 {
		set("write.p50_ms", percentile(wl, 50))
		set("write.p99_ms", percentile(wl, 99))
	}
	set("recovery.recovery_s", chk.recoveryS)
	props = map[string]metric{
		"lattice_read_frac":    {ratio(latticeReads, reads), "ratio"},
		"plan_cache_read_frac": {ratio(cachedReads, reads), "ratio"},
		"memo_read_frac":       {ratio(memoReads, reads), "ratio"},
	}
	return out, props
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

// handlerOf is the handler source whose requests an engine source's
// statements run under.
func handlerOf(engineSrc string) string {
	if engineSrc == srcCoordEng {
		return srcCoord
	}
	return strings.TrimPrefix(engineSrc, srcEngine+"/")
}

// adoptParseSpans gives each parse span its request ID. The engine
// emits parse spans before a statement has its request-tagged tracer,
// so they arrive untagged; each is adopted by the request whose handler
// span on the same component contains it and started last before it
// (with concurrent requests, the one most recently admitted). It
// rewrites spans in place and returns them.
func adoptParseSpans(spans []span) []span {
	handlers := map[string][]span{}
	for _, s := range spans {
		if s.phase == "http" {
			handlers[s.src] = append(handlers[s.src], s)
		}
	}
	for i, s := range spans {
		if s.phase != "parse" || s.reqID != "" {
			continue
		}
		var best *span
		for j, h := range handlers[handlerOf(s.src)] {
			if !h.start.After(s.start) && !h.end.Before(s.end) && (best == nil || h.start.After(best.start)) {
				best = &handlers[handlerOf(s.src)][j]
			}
		}
		if best != nil {
			spans[i].reqID = best.reqID
		}
	}
	return spans
}
