package main

// The three served stacks and how each workload sets up, warms up and
// verifies them. Every stack is the real serving path in one process:
// msql/client → server or dist handler on a loopback httptest listener
// → engine.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"

	"github.com/measures-sql/msql/internal/dist"
	"github.com/measures-sql/msql/internal/server"
	"github.com/measures-sql/msql/msql"
	"github.com/measures-sql/msql/msql/client"
)

// workload is one traffic mix against one stack.
type workload struct {
	name, why string
	orders    int
	// setup builds the stack from seeded data; a durable stack keeps its
	// data in dir, which each of a run's repeated set-ups gets fresh.
	setup func(ctx context.Context, seed int64, dir string, k *sink) (*stack, error)
	// block is one shuffled block of the request stream.
	block func(*rand.Rand) []op
	// fixedReads lists every distinct read the workload can send, for
	// workloads verified after the run (nil: verified by sampling).
	fixedReads []op
}

var workloads = []*workload{
	{
		name:   "analyst",
		why:    "fresh literal bindings of five measure-query templates on vectorized in-memory data: execution-bound, every cache bypassed",
		orders: 20000,
		setup:  setupAnalyst,
		block:  analystBlock,
	},
	{
		name:       "dashboard",
		why:        "24 fixed panels, half prepared, on a durable -rollups server with 1 op in 10 an INSERT: caches, lattice, front end and WAL",
		orders:     50000,
		setup:      setupDashboard,
		block:      dashboardBlock,
		fixedReads: allPanelOps(),
	},
	{
		name:       "sharded",
		why:        "routed, scatter and gather reads plus INSERTs through a coordinator over two shard servers: dist fan-out, merge and wire",
		orders:     20000,
		setup:      setupSharded,
		block:      shardedBlock,
		fixedReads: allShardedOps(),
	},
}

func workloadByName(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

func allPanelOps() []op {
	var out []op
	for p, pn := range dashboardPanels {
		for b := range pn.bindings {
			out = append(out, panelOp(p, b))
		}
	}
	return out
}

func allShardedOps() []op {
	var out []op
	for s, sh := range shardedShapes {
		for b := range sh.bindings {
			out = append(out, shardedOp(s, b))
		}
	}
	return out
}

// stack is one running system under test.
type stack struct {
	cli   *client.Client
	tr    *http.Transport
	stmts map[string]*client.Stmt

	db     *msql.DB // session behind the standalone server
	srv    *server.Server
	dir    string // data directory of a durable session
	coord  *dist.Coordinator
	shards []*msql.DB
	shardS []*server.Server
	https  []*httptest.Server

	k     *sink
	bytes map[string]*atomic.Int64 // response bytes per handler source
}

func newStack(k *sink) *stack {
	return &stack{k: k, stmts: map[string]*client.Stmt{}, bytes: map[string]*atomic.Int64{}}
}

// serve starts h on a loopback listener, wrapped so its spans and
// response bytes are recorded under src.
func (s *stack) serve(h http.Handler, src string) *httptest.Server {
	n := &atomic.Int64{}
	s.bytes[src] = n
	ts := httptest.NewServer(traceHandler{h: h, k: s.k, src: src, bytes: n})
	s.https = append(s.https, ts)
	return ts
}

// connect points the stack's client at url and waits until it is ready.
func (s *stack) connect(ctx context.Context, url string) error {
	s.tr = &http.Transport{MaxIdleConnsPerHost: 8}
	s.cli = client.New(url, client.WithHTTPClient(&http.Client{Transport: s.tr}),
		client.WithBackoff(client.Backoff{Seed: 1}))
	return s.cli.Readyz(ctx)
}

// sessions are the engine sessions that execute statements.
func (s *stack) sessions() []*msql.DB {
	if s.db != nil {
		return []*msql.DB{s.db}
	}
	return s.shards
}

// setTrace turns span collection on or off. Call only while no request
// is in flight.
func (s *stack) setTrace(on bool) {
	if s.db != nil {
		if on {
			s.db.SetTrace(engineTracer{k: s.k, src: srcEngine + "/" + srcServer})
		} else {
			s.db.SetTrace(nil)
		}
	}
	for i, db := range s.shards {
		if on {
			db.SetTrace(engineTracer{k: s.k, src: fmt.Sprintf("%s/%s%d", srcEngine, srcShard, i)})
		} else {
			db.SetTrace(nil)
		}
	}
	if s.coord != nil {
		if on {
			s.coord.SetTrace(engineTracer{k: s.k, src: srcCoordEng})
		} else {
			s.coord.SetTrace(nil)
		}
	}
	s.k.on.Store(on)
}

// do sends one request.
func (s *stack) do(ctx context.Context, o op, reqID string) (*client.Result, error) {
	opts := []client.QueryOption{client.WithRequestID(reqID), client.WithRawNumbers()}
	switch o.kind {
	case opPrepared:
		st, ok := s.stmts[o.sql]
		if !ok {
			return nil, fmt.Errorf("no prepared statement %q", o.sql)
		}
		params := make([]client.Param, len(o.args))
		for i, a := range o.args {
			p, err := client.ParamOf(a)
			if err != nil {
				return nil, err
			}
			params[i] = p
		}
		return st.ExecParams(ctx, params, opts...)
	case opRead:
		return s.cli.Query(ctx, o.sql, append(opts, client.WithIdempotent())...)
	default:
		return s.cli.Query(ctx, o.sql, opts...)
	}
}

// drain stops the front ends and waits for in-flight statements.
func (s *stack) drain(ctx context.Context) {
	if s.srv != nil {
		s.srv.Drain(ctx)
	}
	for _, sv := range s.shardS {
		sv.Drain(ctx)
	}
	for _, ts := range s.https {
		ts.Close()
	}
	s.https = nil
	if s.tr != nil {
		s.tr.CloseIdleConnections()
	}
}

// close tears the stack down and releases its sessions.
func (s *stack) close(ctx context.Context) error {
	s.drain(ctx)
	var errs []error
	if s.coord != nil {
		errs = append(errs, s.coord.Close())
	}
	for _, db := range s.sessions() {
		errs = append(errs, db.Close())
	}
	return errors.Join(errs...)
}

// execAll runs setup statements on an in-process session.
func execAll(db *msql.DB, stmts ...string) error {
	for _, q := range stmts {
		if err := db.Exec(q); err != nil {
			return fmt.Errorf("setup statement %.60q: %w", q, err)
		}
	}
	return nil
}

// loadStatements is the DDL and data load of a workload's tables.
func loadStatements(seed int64, orders int) []string {
	stmts := []string{ordersDDL}
	return append(stmts, insertStatements("Orders", ordersData(seed, orders), 500)...)
}

func setupAnalyst(ctx context.Context, seed int64, _ string, k *sink) (*stack, error) {
	s := newStack(k)
	s.db = msql.Open()
	s.db.SetVectorized(true)
	if err := execAll(s.db, append(loadStatements(seed, 20000), measureViewDDL)...); err != nil {
		s.db.Close()
		return nil, err
	}
	s.srv = server.New(s.db, server.Config{})
	ts := s.serve(s.srv.Handler(), srcServer)
	if err := s.connect(ctx, ts.URL); err != nil {
		s.close(ctx)
		return nil, err
	}
	return s, nil
}

// dashboardSync is msqld's default WAL policy.
const dashboardSync = "always"

func openDashboardDir(dir string) (*msql.DB, error) {
	pol, err := msql.ParseSyncPolicy(dashboardSync)
	if err != nil {
		return nil, err
	}
	db, err := msql.OpenDir(dir, msql.WithSyncPolicy(pol))
	if err != nil {
		return nil, err
	}
	db.SetRollups(true)
	return db, nil
}

func setupDashboard(ctx context.Context, seed int64, dir string, k *sink) (*stack, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	s := newStack(k)
	db, err := openDashboardDir(dir)
	if err != nil {
		return nil, err
	}
	s.db, s.dir = db, dir
	if err := execAll(db, append(loadStatements(seed, 50000), measureViewDDL)...); err != nil {
		db.Close()
		return nil, err
	}
	if err := db.Checkpoint(); err != nil {
		db.Close()
		return nil, err
	}
	s.srv = server.New(db, server.Config{})
	ts := s.serve(s.srv.Handler(), srcServer)
	if err := s.connect(ctx, ts.URL); err != nil {
		s.close(ctx)
		return nil, err
	}
	for _, p := range dashboardPanels {
		if !p.prepared {
			continue
		}
		st, err := s.cli.Prepare(ctx, p.name, p.sql)
		if err != nil {
			s.close(ctx)
			return nil, fmt.Errorf("prepare %s: %w", p.name, err)
		}
		s.stmts[p.name] = st
	}
	return s, nil
}

const nShards = 2

func setupSharded(ctx context.Context, seed int64, _ string, k *sink) (*stack, error) {
	s := newStack(k)
	var topology [][]string
	for i := 0; i < nShards; i++ {
		db := msql.Open()
		sv := server.New(db, server.Config{ShardID: fmt.Sprintf("shard-%d", i)})
		ts := s.serve(sv.Handler(), fmt.Sprintf("%s%d", srcShard, i))
		s.shards = append(s.shards, db)
		s.shardS = append(s.shardS, sv)
		topology = append(topology, []string{ts.URL})
	}
	coord, err := dist.New(dist.Config{Shards: topology, PartitionCols: map[string]string{"orders": "prodName"}})
	if err != nil {
		s.close(ctx)
		return nil, err
	}
	s.coord = coord
	for _, q := range loadStatements(seed, 20000) {
		if err := coord.Exec(ctx, q); err != nil {
			s.close(ctx)
			return nil, fmt.Errorf("setup statement %.60q: %w", q, err)
		}
	}
	ts := s.serve(coord.Handler(), srcCoord)
	if err := s.connect(ctx, ts.URL); err != nil {
		s.close(ctx)
		return nil, err
	}
	return s, nil
}

// newOracle is the reference session: in memory, row executor, rollups
// off, plan cache disabled, loaded with the same data and view.
func newOracle(seed int64, orders int) (*msql.DB, error) {
	db := msql.Open()
	db.SetPlanCacheSize(0)
	if err := execAll(db, append(loadStatements(seed, orders), measureViewDDL)...); err != nil {
		db.Close()
		return nil, err
	}
	return db, nil
}

// oracleSQL is the plain-SQL form of a request, with a prepared
// panel's parameter spliced in as a literal.
func oracleSQL(o op) string {
	p, ok := panelByName(o.sql)
	if o.kind != opPrepared || !ok {
		return o.sql
	}
	lit := fmt.Sprint(o.args[0])
	if s, ok := o.args[0].(string); ok {
		lit = "'" + s + "'"
	}
	return strings.Replace(p.sql, "$1", lit, 1)
}

// localAnswer runs a request directly on an in-process session through
// the same path kind (prepared or text) the served request took.
func localAnswer(db *msql.DB, o op) (*msql.Result, error) {
	if o.kind != opPrepared {
		return db.Query(o.sql)
	}
	p, ok := panelByName(o.sql)
	if !ok {
		return nil, fmt.Errorf("no panel %q", o.sql)
	}
	st, err := db.Prepare(p.sql)
	if err != nil {
		return nil, err
	}
	return st.Query(o.args...)
}

// dataDir is where durable workloads keep their data, under the
// checkout's build directory.
func dataDir(work string, seed int64, n int) string {
	return filepath.Join(work, fmt.Sprintf("data-%d-%d-%d", os.Getpid(), seed, n))
}
