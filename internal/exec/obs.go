package exec

import (
	"sebdb/internal/obs"
)

// Observability plumbing for the operators: every public operator has a
// *Ctx variant that opens a trace span when the context carries one
// (EXPLAIN ANALYZE) and, always, folds its Stats into the registry's
// exec counters. The Stats values themselves are untouched — the cost
// model tests pin them — the registry is a second, cumulative view.

// recordStats folds one operator run's physical counters into the
// registry, labelled by operator and access method.
func recordStats(c Chain, op string, m Method, st Stats) {
	reg := c.Obs()
	l := `{op="` + op + `",method="` + m.String() + `"}`
	reg.Counter("sebdb_exec_blocks_read_total" + l).Add(uint64(st.BlocksRead))
	reg.Counter("sebdb_exec_txs_examined_total" + l).Add(uint64(st.TxsExamined))
	reg.Counter("sebdb_exec_index_probes_total" + l).Add(uint64(st.IndexProbes))
}

// finishStats attaches the Stats to the span and closes it. Safe on a
// nil span (untraced run).
func finishStats(sp *obs.Span, st Stats) {
	sp.SetCounter("blocks_read", int64(st.BlocksRead))
	sp.SetCounter("txs_examined", int64(st.TxsExamined))
	sp.SetCounter("index_probes", int64(st.IndexProbes))
	sp.Finish()
}
