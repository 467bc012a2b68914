package main

// metrics.go is the catalog of every metric the benchmark reports. The
// end-to-end metrics come from untraced runs and the per-layer metrics
// from traced ones; BENCHMARK.json at the checkout root lists the same
// names and units (TestCatalogMatchesBenchmarkJSON keeps them in step).

type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of sasserve or the library sees. Each
// workload reports every one of them on its own work; README.md defines
// each per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "ops/s"},
	{"cpu_ns_per_op", "ns"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are the metrics of single layers, measured by the traced run,
// followed by the latencies, publish lags and restart time, which do not
// repeat within a bound on this kind of machine (see README.md).
var perLayer = []metricDef{
	{"wire.decode_ns_per_key", "ns"},
	{"wire.encode_ns_per_key", "ns"},
	{"wal.append_us_p50", "us"},
	{"wal.append_us_p99", "us"},
	{"wal.sync_ms_p99", "ms"},
	{"wal.bytes_per_key", "B/key"},
	{"wal.replay_ms", "ms"},
	{"core.pushbatch_ns_per_key", "ns"},
	{"core.snapshot_ms", "ms"},
	{"core.merge_ms", "ms"},
	{"core.index_ms", "ms"},
	{"core.persist_ms", "ms"},
	{"core.load_ms", "ms"},
	{"core.build_serial_keys_per_s", "keys/s"},
	{"structure.parse_ns", "ns"},
	{"anscache.get_ns", "ns"},
	{"anscache.hit_ratio", "ratio"},
	{"queryidx.estimate_ns", "ns"},
	{"bounds.bound_ns", "ns"},
	{"ipps.threshold_ms", "ms"},
	{"kd.build_ms", "ms"},
	{"engine.close_ms", "ms"},
	{"sasserve.residual_ns_per_key", "ns"},
	{"sasserve.residual_us_per_query", "us"},
	{"sasserve.refused_per_batch", "ratio"},
	{"sasserve.write_bytes_per_key", "B/key"},
	{"sasserve.epochs", "count"},
	{"loadgen.cpu_us_per_req", "us"},
	{"loadgen.late_ms_p99", "ms"},
	{"host.steal_pct", "%"},
	{"trace.overhead_pct", "%"},
	{"ack_p50_ms", "ms"},
	{"ack_p99_ms", "ms"},
	{"query_p50_us", "us"},
	{"query_p99_us", "us"},
	{"publish_lag_p50_ms", "ms"},
	{"publish_lag_p99_ms", "ms"},
	{"recover_s", "s"},
}
