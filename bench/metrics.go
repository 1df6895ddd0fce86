package main

// metricDef names one scoreboard line. The tables below are the single
// source of the names and units the command prints; BENCHMARK.json must
// list exactly these (bench_test.go guards the two against drift).
type metricDef struct {
	name, unit string
	// bound is the share of the parent's median an end-to-end metric may
	// worsen by before a change is rejected; per-layer metrics have none.
	bound float64
}

// Units: "nms" is machine-normalised milliseconds (see norm.go); on
// fleet-sim the latency metrics are virtual milliseconds instead, which
// need no normalising. "ms" is reserved for plain host time.
var endToEnd = []metricDef{
	{"setup_s", "s", 0.25},
	{"fetches_per_s", "1/s", 0.25},
	{"gzip_fetch_p50_ms", "nms", 0.25},
	{"compress_fetch_p50_ms", "nms", 0.25},
	{"bzip2_fetch_p50_ms", "nms", 0.25},
	{"ttfb_p50_ms", "nms", 0.25},
	{"cpu_ms_per_fetch", "nms", 0.25},
	{"allocs_per_fetch", "count", 0.1},
	{"alloc_kb_per_fetch", "KiB", 0.12},
	{"peak_rss_mb", "MiB", 0.25},
	{"wire_per_raw", "ratio", 0.03},
	{"model_j_per_mb", "J/MB", 0.03},
}

var perLayer = []metricDef{
	// Client and server span phases, median per fetch.
	{"proxy.client_dial_ms", "nms", 0},
	{"proxy.client_header_ms", "nms", 0},
	{"proxy.client_recv_ms", "nms", 0},
	{"proxy.client_decompress_ms", "nms", 0},
	{"proxy.client_verify_ms", "nms", 0},
	{"proxy.client_unattributed_pct", "%", 0},
	{"proxy.server_read_request_ms", "nms", 0},
	{"proxy.server_lookup_ms", "nms", 0},
	{"proxy.server_compress_ms", "nms", 0},
	{"proxy.server_write_blocks_ms", "nms", 0},
	{"proxy.server_unattributed_pct", "%", 0},
	// Server.Stats() deltas over the traced passes.
	{"proxy.cache_hit_ratio", "ratio", 0},
	{"proxy.compressions_per_fetch", "ratio", 0},
	{"proxy.coalesced_per_fetch", "ratio", 0},
	{"proxy.evictions", "count", 0},
	{"proxy.conns_rejected", "count", 0},
	{"proxy.errors", "count", 0},
	{"proxy.cached_artifact_ns", "nns", 0},
	{"proxy.precompress_ms", "nms", 0},
	// Conn wrapper.
	{"proxy.client_reads_per_fetch", "count", 0},
	{"proxy.client_writes_per_fetch", "count", 0},
	{"proxy.wire_overhead_bytes_per_fetch", "B", 0},
	{"proxy.fetch_tail_ms", "nms", 0},
	{"proxy.fetch_tail_pct", "%", 0},
	// Codec kernels on the workload's own files and artifacts.
	{"flate.inflate_mb_s", "MB/s", 0},
	{"lzw.decode_mb_s", "MB/s", 0},
	{"bwt.decode_mb_s", "MB/s", 0},
	{"flate.deflate_mb_s", "MB/s", 0},
	{"lzw.encode_mb_s", "MB/s", 0},
	{"bwt.encode_mb_s", "MB/s", 0},
	{"lz77.tokenize_mb_s", "MB/s", 0},
	{"huffman.build_us", "nus", 0},
	{"huffman.decode_msym_s", "Msym/s", 0},
	{"bwt.transform_mb_s", "MB/s", 0},
	{"bwt.inverse_mb_s", "MB/s", 0},
	{"checksum.crc32_mb_s", "MB/s", 0},
	{"selective.encode_mb_s", "MB/s", 0},
	{"selective.decode_mb_s", "MB/s", 0},
	{"selective.parse_us", "nus", 0},
	{"codec.decompress_allocs_per_op", "count", 0},
	{"decider.decide_ns", "nns", 0},
	{"decider.should_compress_ns", "nns", 0},
	// Cluster plane: no workload is clustered; these keep the PXY-P hop
	// on the record.
	{"cluster.ring_owner_ns", "nns", 0},
	{"cluster.sketch_add_ns", "nns", 0},
	{"cluster.peer_fetch_ms", "nms", 0},
	{"cluster.peer_fetch_allocs", "count", 0},
	// Virtual testbed.
	{"scenario.parse_us", "nus", 0},
	{"scenario.compile_us", "nus", 0},
	{"harness.run_ms_per_client", "nms", 0},
	{"harness.trace_ms", "nms", 0},
	{"harness.events_ms", "nms", 0},
	{"simnet.sleep_wake_ns", "nns", 0},
	{"simnet.conn_ms_per_mb", "nms/MB", 0},
	// Telemetry's own cost.
	{"obs.span_ns", "nns", 0},
	{"obs.event_emit_ns", "nns", 0},
	{"obs.trace_overhead_pct", "%", 0},
	{"workload.generate_mb_s", "MB/s", 0},
	{"workload.ratio_mb_s", "MB/s", 0},
	{"experiment.scheme_comparison_ms", "nms", 0},
	// Go runtime over the measured passes.
	{"runtime.gc_cycles_per_kfetch", "count", 0},
	{"runtime.gc_pause_ms", "ms", 0},
	{"runtime.heap_peak_mb", "MiB", 0},
	{"runtime.goroutines_peak", "count", 0},
	// The normaliser's own readings: how disturbed was this run?
	{"host.speed_factor_p50", "ratio", 0},
	{"host.speed_factor_min", "ratio", 0},
	{"host.raw_fetches_per_s", "1/s", 0},
	{"host.stolen_cpu_pct", "%", 0},
}

// workloadNames in the order BENCHMARK.json lists them.
var workloadNames = []string{"hit-small", "hit-large", "miss-large", "fleet-sim"}
