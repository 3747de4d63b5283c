package main

// Tracing for the per-layer run. The benchmark records its own spans at
// every layer boundary it can reach from outside the program — the
// client call and each server, coordinator and shard http.Handler; the
// reopening of a durable directory (msql.OpenDir) is timed as
// recovery — and joins them by X-Request-Id to the spans the engine
// already emits through msql.DB.SetTrace and dist.Coordinator.SetTrace.
// Engine spans carry a duration but no start time, so a span's interval
// is taken as [arrival − duration, arrival]: the engine emits each one
// as its phase ends.

import (
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/measures-sql/msql/msql"
)

// Span sources: which component produced a span.
const (
	srcClient   = "client"   // the benchmark's client call
	srcServer   = "server"   // the standalone server's http.Handler
	srcCoord    = "coord"    // the coordinator's http.Handler
	srcShard    = "shard"    // a shard server's http.Handler
	srcEngine   = "engine"   // engine spans of a server or shard session
	srcCoordEng = "coordeng" // coordinator spans (shard calls) and its local session
)

// span is one interval of one request in one component.
type span struct {
	src, reqID  string
	phase, name string
	start, end  time.Time
	attrs       map[string]string
	bytes       int64 // response bytes, for handler spans
}

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// sink buffers spans in memory while on; they are aggregated after the
// traced phase ends.
type sink struct {
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func (k *sink) add(s span) {
	k.mu.Lock()
	k.spans = append(k.spans, s)
	k.mu.Unlock()
}

// take returns the buffered spans and empties the buffer.
func (k *sink) take() []span {
	k.mu.Lock()
	defer k.mu.Unlock()
	out := k.spans
	k.spans = nil
	return out
}

// engineTracer adapts the engine's TraceHook to the sink.
type engineTracer struct {
	k   *sink
	src string
}

// Span implements msql.TraceHook.
func (t engineTracer) Span(s msql.TraceSpan) {
	end := time.Now()
	t.k.add(span{
		src: t.src, reqID: s.Attrs["request_id"],
		phase: s.Phase, name: s.Name,
		start: end.Add(-time.Duration(s.DurNs)), end: end,
		attrs: s.Attrs,
	})
}

// traceHandler wraps one component's http.Handler: it always counts
// response bytes, and records a span per request while the sink is on.
type traceHandler struct {
	h     http.Handler
	k     *sink
	src   string
	bytes *atomic.Int64
}

func (t traceHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	cw := &countingWriter{ResponseWriter: w}
	if !t.k.on.Load() {
		t.h.ServeHTTP(cw, r)
		t.bytes.Add(cw.n)
		return
	}
	start := time.Now()
	t.h.ServeHTTP(cw, r)
	t.bytes.Add(cw.n)
	t.k.add(span{
		src: t.src, reqID: r.Header.Get("X-Request-Id"),
		phase: "http", name: r.URL.Path,
		start: start, end: time.Now(), bytes: cw.n,
	})
}

// countingWriter counts response body bytes.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

// interval is a half-open time range in nanoseconds.
type interval struct{ lo, hi int64 }

func ivOf(s span) interval { return interval{s.start.UnixNano(), s.end.UnixNano()} }

// covered returns how much of parent the union of children covers:
// children are clipped to parent and overlaps count once.
func covered(parent interval, children []interval) int64 {
	var cs []interval
	for _, c := range children {
		lo, hi := max(c.lo, parent.lo), min(c.hi, parent.hi)
		if lo < hi {
			cs = append(cs, interval{lo, hi})
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].lo < cs[j].lo })
	var total int64
	var cur interval
	for i, c := range cs {
		switch {
		case i == 0:
			cur = c
		case c.lo <= cur.hi:
			cur.hi = max(cur.hi, c.hi)
		default:
			total += cur.hi - cur.lo
			cur = c
		}
	}
	if len(cs) > 0 {
		total += cur.hi - cur.lo
	}
	return total
}

// selfTime is parent's duration minus the part of its interval that
// children cover.
func selfTime(parent interval, children []interval) int64 {
	return parent.hi - parent.lo - covered(parent, children)
}

// opKinds are the operator classes exec.{kind}_us reports.
var opKinds = []string{"scan", "filter", "aggregate", "join", "window", "sort", "project"}

// operatorKind classifies an operator span name (plan.Node.Explain) and
// gives its child count, which lets operatorSelf rebuild the tree from
// the pre-order span stream exec.PlanSpans emits.
func operatorKind(name string) (kind string, children int) {
	word, rest, _ := strings.Cut(name, " ")
	switch word {
	case "Scan", "Values":
		return "scan", 0
	case "Filter":
		return "filter", 1
	case "Aggregate":
		return "aggregate", 1
	case "Window":
		return "window", 1
	case "Sort", "Limit", "Distinct":
		return "sort", 1
	case "Project":
		return "project", 1
	case "UNION", "INTERSECT", "EXCEPT":
		return "join", 2
	}
	if strings.HasPrefix(rest, "Join") {
		return "join", 2
	}
	return "", 1
}

// operatorSelf turns one statement's operator spans (pre-order: a node,
// then "[label]" markers each followed by that subquery's plan, then
// the node's children) into self time per operator kind. Each node's
// wall time is inclusive of its children and of the subquery plans its
// expressions ran, so those are subtracted.
func operatorSelf(ops []span, out map[string]int64) {
	i := 0
	var node func() int64
	node = func() int64 {
		if i >= len(ops) {
			return 0
		}
		s := ops[i]
		i++
		kind, nkids := operatorKind(s.name)
		incl := int64(s.dur())
		var inner int64
		for i < len(ops) && strings.HasPrefix(ops[i].name, "[") {
			i++
			inner += node()
		}
		for c := 0; c < nkids; c++ {
			inner += node()
		}
		if kind != "" && incl > inner {
			out[kind] += incl - inner
		}
		return incl
	}
	for i < len(ops) {
		node()
	}
}
