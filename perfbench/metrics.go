package main

// metric names a reported figure and its unit. The lists match
// BENCHMARK.json (TestMetricListsMatchBenchmarkJSON).
type metric struct{ name, unit string }

// endToEnd are what a user of the miner sees, from untraced runs.
var endToEnd = []metric{
	{"latency_p50_s", "s"},
	{"cpu_s_per_op", "s"},
	{"alloc_mb_per_op", "MiB"},
	{"rss_p50_mb", "MiB"},
	{"setup_s", "s"},
}

// perLayer are the traced run's figures, one group per program layer.
var perLayer = []metric{
	{"periodica.convert_s", "s"},
	{"periodica.items_converted", "count"},
	{"periodica.items_returned", "count"},
	{"periodica.shape_keep_ratio", "ratio"},
	{"periodica.rendered_bytes", "bytes"},
	{"periodica.series_build_s", "s"},
	{"query.compile_s", "s"},
	{"query.cache_hits", "count"},
	{"core.detect_s", "s"},
	{"core.sweep_s", "s"},
	{"core.resolve_s", "s"},
	{"core.enumerate_s", "s"},
	{"core.sweep_pairs", "count"},
	{"core.survivor_pairs", "count"},
	{"core.sweep_keep_ratio", "ratio"},
	{"core.periodicities", "count"},
	{"core.patterns", "count"},
	{"core.patterns_truncated", "count"},
	{"conv.lag_counts_s", "s"},
	{"conv.lag_counts_1t_s", "s"},
	{"fft.size", "count"},
	{"fft.kernel_radix2", "count"},
	{"fft.kernel_fourstep", "count"},
	{"fft.kernel_real", "count"},
	{"fft.kernel_batch", "count"},
	{"fft.computed_gflop", "GFLOP"},
	{"fft.computed_gbytes", "GB"},
	{"fft.achieved_gflops", "GFLOP/s"},
	{"series.string_s", "s"},
	{"discretize.equal_width_s", "s"},
	{"httpapi.mine_s", "s"},
	{"httpapi.edge_s", "s"},
	{"httpapi.shard_s", "s"},
	{"httpapi.request_bytes", "bytes"},
	{"httpapi.response_bytes", "bytes"},
	{"httpapi.rejected", "count"},
	{"dist.coordinator_mine_s", "s"},
	{"dist.survivors_s", "s"},
	{"dist.shards", "count"},
	{"dist.shard_calls", "count"},
	{"dist.retries", "count"},
	{"dist.hedges", "count"},
	{"dist.fallbacks", "count"},
	{"dist.integrity_failures", "count"},
	{"dist.shard_latency_s", "s"},
	{"dist.wire_bytes_out", "bytes"},
	{"dist.wire_bytes_in", "bytes"},
	{"trace.overhead_s", "s"},
}
