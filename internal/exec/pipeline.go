package exec

import (
	"sync"

	"github.com/measures-sql/msql/internal/plan"
	"github.com/measures-sql/msql/internal/sqltypes"
	"github.com/measures-sql/msql/internal/vec"
)

// Pipeline carries the reusable compiled artifacts of vectorized
// execution: expression trees keyed by plan-node identity, base-table
// scan columns, and (for a reused pipeline) pooled batch and aggregate
// scratch. Compiled vecExpr trees are stateless and shared across worker
// goroutines, so a single Pipeline may serve concurrent executions of
// its plan; the maps are filled lazily under a lock on first use and
// read-mostly afterwards.
//
// Every vectorized execution runs with one. The plan cache keeps a
// reused pipeline per cached plan (NewPipeline), so repeated executions
// skip compilation and scan transposition. Otherwise RunContext attaches
// a statement-scoped one, so the correlated re-evaluations of one
// statement — every measure-context subquery — compile once and
// transpose each scan once.
type Pipeline struct {
	mu       sync.RWMutex
	filters  map[*plan.Filter]vecExpr
	projects map[*plan.Project][]vecExpr
	aggs     map[*plan.Aggregate]*vecAggExprs
	share    *colShare

	// reused is set for a pipeline that outlives one execution. Only it
	// pools scratch: a sync.Pool's victim cache would keep a
	// statement's batches, and the columns they reference, alive
	// through a GC after the statement ended. And only it shares the
	// columns of scans outside subqueries; a statement runs those once.
	reused  bool
	batches sync.Pool // *vecBatch
	scratch sync.Pool // *aggScratch
}

// NewPipeline returns an empty pipeline for a plan that will be
// executed repeatedly, such as a plan-cache entry.
func NewPipeline() *Pipeline {
	p := newPipeline()
	p.reused = true
	return p
}

// newPipeline returns an empty statement-scoped pipeline.
func newPipeline() *Pipeline {
	return &Pipeline{
		filters:  map[*plan.Filter]vecExpr{},
		projects: map[*plan.Project][]vecExpr{},
		aggs:     map[*plan.Aggregate]*vecAggExprs{},
		share:    &colShare{cols: map[colKey]*vec.Col{}},
	}
}

// colShare caches columnarized base-table batches across executions,
// so the row→column conversion, the dominant per-batch cost, is done
// once per batch of scan rows rather than once per scan. A column is
// keyed by the address of its batch's first slot in the scan output's
// backing array — the key keeps that array alive, so the address cannot
// be reused — plus the batch length and column kind. Every scan of an
// unchanged table returns the same array, so the scans of all the
// subqueries of a statement share; a table that changed since (its
// slots are never rewritten, and an append past capacity or a TRUNCATE
// moves it to a new array) or a virtual table that produced fresh rows
// rebuilds. Cached columns are read-only by the same contract that lets
// compiled vecExpr trees be shared across worker goroutines.
type colShare struct {
	mu   sync.Mutex
	cols map[colKey]*vec.Col
}

// colKey addresses one cached column: the batch's first scan-output
// slot plus the column index.
type colKey struct {
	slot *Row
	idx  int
}

func (s *colShare) get(rows []Row, idx int, kind sqltypes.Kind) *vec.Col {
	s.mu.Lock()
	c := s.cols[colKey{&rows[0], idx}]
	s.mu.Unlock()
	if c != nil && c.Len() == len(rows) && c.Kind == kind {
		return c
	}
	return nil
}

func (s *colShare) put(rows []Row, idx int, c *vec.Col) {
	s.mu.Lock()
	s.cols[colKey{&rows[0], idx}] = c
	s.mu.Unlock()
}

func (p *Pipeline) filterExpr(n *plan.Filter, width int) vecExpr {
	p.mu.RLock()
	ve := p.filters[n]
	p.mu.RUnlock()
	if ve != nil {
		return ve
	}
	ve = vecCompile(n.Pred, width)
	p.mu.Lock()
	p.filters[n] = ve
	p.mu.Unlock()
	return ve
}

func (p *Pipeline) projectExprs(n *plan.Project, width int) []vecExpr {
	p.mu.RLock()
	ves := p.projects[n]
	p.mu.RUnlock()
	if ves != nil {
		return ves
	}
	ves = make([]vecExpr, len(n.Exprs))
	for j, ne := range n.Exprs {
		ves[j] = vecCompile(ne.Expr, width)
	}
	p.mu.Lock()
	p.projects[n] = ves
	p.mu.Unlock()
	return ves
}

func (p *Pipeline) aggExprs(env *aggEnv, inSchema *plan.Schema) *vecAggExprs {
	p.mu.RLock()
	vea := p.aggs[env.n]
	p.mu.RUnlock()
	if vea != nil {
		return vea
	}
	vea = compileVecAgg(env, inSchema)
	p.mu.Lock()
	p.aggs[env.n] = vea
	p.mu.Unlock()
	return vea
}

// getBatch returns a batch view of rows, pooled when the pipeline is
// reused. When the rows come straight from a base-table Scan whose
// columns the pipeline shares (see Pipeline.reused), the batch reads
// and on first use fills the shared columns.
func (rt *runtime) getBatch(input plan.Node, rows []Row, kinds []sqltypes.Kind) *vecBatch {
	p := rt.sh.pipe
	var vb *vecBatch
	if p.reused {
		vb, _ = p.batches.Get().(*vecBatch)
	}
	if vb == nil || cap(vb.cols) < len(kinds) {
		vb = newVecBatch(rows, kinds)
	} else {
		vb.rows, vb.kinds = rows, kinds
		vb.cols = vb.cols[:len(kinds)]
		for i := range vb.cols {
			vb.cols[i] = nil
		}
		vb.kernelRows, vb.fallbackRows = 0, 0
	}
	if _, ok := input.(*plan.Scan); ok && (p.reused || len(rt.outer) > 0) {
		vb.share = p.share
	}
	return vb
}

func (rt *runtime) putBatch(vb *vecBatch) {
	if p := rt.sh.pipe; p.reused {
		vb.rows, vb.share = nil, nil
		p.batches.Put(vb)
	}
}

// aggScratch is the per-accumulate-call scratch of the vectorized
// aggregate path; its shape depends on the Aggregate node, so a pooled
// instance is reused only when the shape matches.
type aggScratch struct {
	kv         []sqltypes.Value
	keyBuf     []byte
	argBufs    [][]sqltypes.Value
	filterCols []*vec.Col
	argCols    [][]*vec.Col
	groupCols  []*vec.Col
}

func newAggScratch(n *plan.Aggregate) *aggScratch {
	s := &aggScratch{
		kv:         make([]sqltypes.Value, len(n.GroupExprs)),
		argBufs:    make([][]sqltypes.Value, len(n.Aggs)),
		filterCols: make([]*vec.Col, len(n.Aggs)),
		argCols:    make([][]*vec.Col, len(n.Aggs)),
		groupCols:  make([]*vec.Col, len(n.GroupExprs)),
	}
	for i, call := range n.Aggs {
		s.argBufs[i] = make([]sqltypes.Value, len(call.Args))
		s.argCols[i] = make([]*vec.Col, len(call.Args))
	}
	return s
}

func (s *aggScratch) shapeMatches(n *plan.Aggregate) bool {
	if len(s.groupCols) != len(n.GroupExprs) || len(s.argBufs) != len(n.Aggs) {
		return false
	}
	for i, call := range n.Aggs {
		if len(s.argBufs[i]) != len(call.Args) {
			return false
		}
	}
	return true
}

func (rt *runtime) getAggScratch(n *plan.Aggregate) *aggScratch {
	if p := rt.sh.pipe; p.reused {
		if s, _ := p.scratch.Get().(*aggScratch); s != nil && s.shapeMatches(n) {
			return s
		}
	}
	return newAggScratch(n)
}

func (rt *runtime) putAggScratch(s *aggScratch) {
	if p := rt.sh.pipe; p.reused {
		for i := range s.groupCols {
			s.groupCols[i] = nil
		}
		for i := range s.filterCols {
			s.filterCols[i] = nil
		}
		for i := range s.argCols {
			for j := range s.argCols[i] {
				s.argCols[i][j] = nil
			}
		}
		p.scratch.Put(s)
	}
}
