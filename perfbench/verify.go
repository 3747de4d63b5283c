package main

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"time"

	"github.com/measures-sql/msql/msql"
)

// checkResult is what verification found.
type checkResult struct {
	checked, wrong int
	hint           string // the first wrong answer
	recoveryS      float64
	recovered      int64 // WAL records replayed on reopen
}

func (c *checkResult) note(o op, err error) {
	c.checked++
	if err == nil {
		return
	}
	c.wrong++
	if c.hint == "" {
		c.hint = fmt.Sprintf("%.80q: %v", o.key(), err)
	}
}

// sameResult compares two in-process results bit for bit.
func sameResult(got, want *msql.Result) error {
	g, err := oracleAnswer(got)
	if err != nil {
		return err
	}
	w, err := oracleAnswer(want)
	if err != nil {
		return err
	}
	if !bytes.Equal(g.buf.Bytes(), w.buf.Bytes()) {
		return fmt.Errorf("answer (%d rows) differs from the oracle's (%d rows)", g.rows, w.rows)
	}
	return nil
}

// verify checks the run's answers against an oracle session built
// after the timed phases, so none of its cost is timed. Sampled
// workloads compare each kept answer's digest; fixed-read workloads
// replay every acknowledged INSERT batch into the oracle and then
// compare every distinct read, served and (for a durable stack) after
// reopening the data directory.
func verify(ctx context.Context, st *stack, w *workload, seed int64, phases []*phase) (*checkResult, error) {
	oracle, err := newOracle(seed, w.orders)
	if err != nil {
		return nil, err
	}
	defer oracle.Close()
	chk := &checkResult{}
	if w.fixedReads == nil {
		for _, p := range phases {
			for _, s := range p.samples {
				want, err := oracle.Query(oracleSQL(s.o))
				if err == nil {
					var a *answer
					if a, err = oracleAnswer(want); err == nil && a.digest() != s.digest {
						err = fmt.Errorf("served answer (%d rows) differs from the oracle's (%d rows)", s.rows, a.rows)
					}
				}
				chk.note(s.o, err)
			}
		}
		return chk, nil
	}

	var writes []rec
	for _, p := range phases {
		for _, r := range p.recs {
			if r.o.kind == opWrite && r.err == nil {
				writes = append(writes, r)
			}
		}
	}
	sort.Slice(writes, func(i, j int) bool {
		return writes[i].start.Add(writes[i].lat).Before(writes[j].start.Add(writes[j].lat))
	})
	for _, r := range writes {
		if err := oracle.Exec(r.o.sql); err != nil {
			return nil, fmt.Errorf("oracle insert: %w", err)
		}
	}
	wants := make([]*msql.Result, len(w.fixedReads))
	for i, o := range w.fixedReads {
		if wants[i], err = oracle.Query(oracleSQL(o)); err != nil {
			return nil, fmt.Errorf("oracle query %.60q: %w", o.key(), err)
		}
		got, err := st.do(ctx, o, fmt.Sprintf("verify-%d", i))
		if err == nil {
			err = sameAnswer(got, wants[i])
		}
		chk.note(o, err)
	}
	if st.dir == "" {
		return chk, nil
	}

	// Recovery: stop serving, close the session, reopen the directory
	// and time it up to the first answer, which must be correct.
	st.drain(ctx)
	if err := st.db.Close(); err != nil {
		return nil, fmt.Errorf("closing the durable session: %w", err)
	}
	st.db = nil
	t0 := time.Now()
	db, err := openDashboardDir(st.dir)
	if err != nil {
		return nil, fmt.Errorf("reopening %s: %w", st.dir, err)
	}
	st.db = db
	first, err := localAnswer(db, w.fixedReads[0])
	chk.recoveryS = time.Since(t0).Seconds()
	chk.recovered = db.WALStats().RecoveredRecords
	if err == nil {
		err = sameResult(first, wants[0])
	}
	chk.note(w.fixedReads[0], err)
	for i, o := range w.fixedReads[1:] {
		got, err := localAnswer(db, o)
		if err == nil {
			err = sameResult(got, wants[i+1])
		}
		chk.note(o, err)
	}
	return chk, nil
}
