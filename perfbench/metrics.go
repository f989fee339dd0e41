package main

import (
	"fmt"

	"sebdb/internal/core"
)

// The metric catalog. BENCHMARK.json lists the same names and units;
// the smoke test keeps the two in step.

type metricDef struct{ name, unit string }

// endToEnd are BENCHMARK.json's end_to_end metrics: every workload
// reports each of them with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"ops_per_cpu_s", "ops/CPU-s"},
	{"op_p50_ms", "ms"},
	{"op_p99_ms", "ms"},
	{"disk_bytes_per_tx", "B/tx"},
}

// perLayer are the traced pass's metrics. A layer a workload leaves idle
// reports 0 there.
var perLayer = []metricDef{
	// query-mix
	{"sqlparser.parse_us", "us"},
	{"exec.self_us", "us"},
	{"exec.index_probes_per_op", "count"},
	{"exec.blocks_read_per_op", "count"},
	{"exec.txs_examined_per_row", "ratio"},
	{"core.block_read_us", "us"},
	{"core.tx_read_us", "us"},
	{"core.chain_reads_per_op", "count"},
	{"cache.hit_ratio", "ratio"},
	{"cache.evictions_per_op", "count"},
	{"cache.contention_per_op", "count"},
	{"core.stmt_residual_us", "us"},
	// ingest
	{"consensus.batch_wait_us", "us"},
	{"core.commit_us", "us"},
	{"core.commit_p99_us", "us"},
	{"consensus.ack_us", "us"},
	{"storage.segments_recompressed", "count"},
	{"storage.saved_bytes_per_tx", "B/tx"},
	{"snapshot.checkpoints", "count"},
	// verified-fleet
	{"node.auth_query_us", "us"},
	{"node.auth_digest_us", "us"},
	{"thinclient.verify_us", "us"},
	{"auth.serve_us", "us"},
	{"auth.vo_bytes_per_query", "B"},
	{"auth.vo_blocks_per_query", "count"},
	{"node.sql_us", "us"},
	{"core.leader_commit_us", "us"},
	{"replica.visible_after_commit_us", "us"},
	// every workload
	{"bench.unattributed_us", "us"},
	{"bench.traced_op_p50_ms", "ms"},
	{"bench.untraced_op_p50_ms", "ms"},
}

// layerMetrics returns every per-layer metric: vals where given, 0 for
// layers the workload leaves idle.
func layerMetrics(vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(perLayer))
	for _, d := range perLayer {
		out[d.name] = metric{Value: 0, Unit: d.unit}
	}
	for name, v := range vals {
		m, ok := out[name]
		if !ok {
			panic(fmt.Sprintf("perfbench: per-layer metric %q is not in the catalog", name))
		}
		m.Value = v
		out[name] = m
	}
	return out
}

// chainTxs counts the transactions on an engine's chain.
func chainTxs(e *core.Engine) int {
	n := 0
	for _, h := range e.Headers() {
		n += int(h.TxCount)
	}
	return n
}
