// Rollup lattice wiring: the session owns (at most) one
// rollup.Lattice, installed into the executor settings as the
// RollupProvider and kept consistent by synchronous notifications from
// every mutation path — execInsert, InsertRows (and the CAS variants,
// which route through them), execTruncate, execDrop, and CREATE OR
// REPLACE TABLE. The lattice is derived state: it is never written to
// the WAL, and a session recovered from a crash starts with an empty
// lattice that re-materializes from the recovered store on first use.
package engine

import (
	"github.com/measures-sql/msql/internal/exec"
	"github.com/measures-sql/msql/internal/optimizer"
	"github.com/measures-sql/msql/internal/rollup"
)

// SetRollups enables or disables the materialized rollup lattice.
// Enabling replaces any existing lattice with a fresh one; statements
// already running keep the settings snapshot (and so the lattice) they
// started with.
func (s *Session) SetRollups(on bool) {
	if !on {
		s.rollups.Store(nil)
		s.Update(func(ex *exec.Settings, _ *optimizer.Options) { ex.Rollups = nil })
		return
	}
	l := rollup.New()
	s.rollups.Store(l)
	s.Update(func(ex *exec.Settings, _ *optimizer.Options) { ex.Rollups = l })
}

// RollupsEnabled reports whether a lattice is installed.
func (s *Session) RollupsEnabled() bool { return s.rollups.Load() != nil }

// RollupStats returns the lattice activity counters (zero value when
// rollups are disabled).
func (s *Session) RollupStats() rollup.Counters {
	if l := s.rollups.Load(); l != nil {
		return l.Stats()
	}
	return rollup.Counters{}
}

// rollupMutation folds a just-committed INSERT into the table's
// lattice nodes. Called synchronously after the insert applies so a
// node can never answer from a shorter prefix than an acknowledged
// statement.
func (s *Session) rollupMutation(table string) {
	if l := s.rollups.Load(); l != nil {
		l.NotifyMutation(table)
	}
}

// rollupTruncate resets the table's lattice nodes. Called synchronously
// after TRUNCATE applies, before any later statement can refill the
// table to its old length.
func (s *Session) rollupTruncate(table string) {
	if l := s.rollups.Load(); l != nil {
		l.NotifyTruncate(table)
	}
}

// rollupDDL drops the table's lattice nodes after DROP or CREATE OR
// REPLACE detaches the storage instance they were built over.
func (s *Session) rollupDDL(table string) {
	if l := s.rollups.Load(); l != nil {
		l.NotifyDDL(table)
	}
}
