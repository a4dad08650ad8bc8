package main

// metricDef names one metric of BENCHMARK.json. bound is the share of the
// parent's median by which an end-to-end metric may worsen; per-layer
// metrics carry none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the system sees. Failure counts are not
// here: they are zero on a healthy run, and travel as the result's
// attempted/failed pair (and as update.fail_ratio, join.fail_ratio among
// the layers).
var endToEnd = []metricDef{
	{"update_latency_ms_p50", "ms", "lower", 0.20},
	{"update_latency_ms_p99", "ms", "lower", 0.25},
	{"wire_bytes_per_update", "bytes", "lower", 0.02},
	{"viewer_updates_per_s", "1/s", "higher", 0.07},
	{"join_ms_p50", "ms", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the traced run's metrics; layer names are package names.
var perLayer = []metricDef{
	{Name: "workload.step_us", Unit: "us", Better: "lower"},
	{Name: "capture.tick_us_p50", Unit: "us", Better: "lower"},
	{Name: "capture.tick_us_p99", Unit: "us", Better: "lower"},
	{Name: "capture.full_refresh_ms", Unit: "ms", Better: "lower"},
	{Name: "capture.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "capture.parallel_job_ratio", Unit: "ratio", Better: "higher"},
	{Name: "codec.encode_us_per_tick", Unit: "us", Better: "lower"},
	{Name: "codec.hash_us_per_tick", Unit: "us", Better: "lower"},
	{Name: "codec.decode_us_per_tick", Unit: "us", Better: "lower"},
	{Name: "codec.payload_bytes_per_tick", Unit: "bytes", Better: "lower"},
	{Name: "remoting.fragment_us_per_tick", Unit: "us", Better: "lower"},
	{Name: "rtp.marshal_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "core.reassemble_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "ah.tick_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "ah.tick_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "ah.tick_self_us", Unit: "us", Better: "lower"},
	{Name: "ah.allocs_per_viewer_tick", Unit: "count", Better: "lower"},
	{Name: "ah.alloc_bytes_per_viewer_tick", Unit: "bytes", Better: "lower"},
	{Name: "ah.refresh_tick_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "ah.served_refreshes", Unit: "count", Better: "lower"},
	{Name: "ah.nack_handled", Unit: "count", Better: "lower"},
	{Name: "ah.pli_handled", Unit: "count", Better: "lower"},
	{Name: "ah.deferrals", Unit: "count", Better: "lower"},
	{Name: "ah.attach_us_per_viewer", Unit: "us", Better: "lower"},
	{Name: "ah.heap_bytes_per_viewer", Unit: "bytes", Better: "lower"},
	{Name: "ah.send_ns_per_viewer_pkt", Unit: "ns", Better: "lower"},
	{Name: "transport.udp_send_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "transport.pkts_per_tick", Unit: "count", Better: "lower"},
	{Name: "transport.pkts_per_sendbatch", Unit: "count", Better: "higher"},
	{Name: "transport.wire_bytes_per_tick", Unit: "bytes", Better: "lower"},
	{Name: "transport.udp_rcv_drops", Unit: "count", Better: "lower"},
	{Name: "framing.write_us_per_tick", Unit: "us", Better: "lower"},
	{Name: "framing.writes_per_tick", Unit: "count", Better: "lower"},
	{Name: "relay.hop_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "relay.hop_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "relay.forward_ns_per_viewer_pkt", Unit: "ns", Better: "lower"},
	{Name: "relay.batches_per_tick", Unit: "count", Better: "lower"},
	{Name: "relay.cache_refills", Unit: "count", Better: "lower"},
	{Name: "relay.cache_serves", Unit: "count", Better: "lower"},
	{Name: "relay.absorbed_plis", Unit: "count", Better: "lower"},
	{Name: "participant.handle_us_per_pkt", Unit: "us", Better: "lower"},
	{Name: "participant.handle_ms_per_tick", Unit: "ms", Better: "lower"},
	{Name: "participant.msgs_per_tick", Unit: "count", Better: "lower"},
	{Name: "participant.render_ms", Unit: "ms", Better: "lower"},
	{Name: "participant.reordered", Unit: "count", Better: "lower"},
	{Name: "participant.dropped_msgs", Unit: "count", Better: "lower"},
	{Name: "rtcp.nacks_sent", Unit: "count", Better: "lower"},
	{Name: "rtcp.plis_sent", Unit: "count", Better: "lower"},
	{Name: "rtcp.repair_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "stats.record_ns", Unit: "ns", Better: "lower"},
	{Name: "stats.record_ns_contended", Unit: "ns", Better: "lower"},
	{Name: "proc.cpu_ms_per_tick", Unit: "ms", Better: "lower"},
	{Name: "proc.gc_cpu_fraction", Unit: "ratio", Better: "lower"},
	{Name: "proc.gc_pause_ms_total", Unit: "ms", Better: "lower"},
	{Name: "proc.max_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "gen.late_ms_max", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "update.fail_ratio", Unit: "ratio", Better: "lower"},
	{Name: "join.fail_ratio", Unit: "ratio", Better: "lower"},
}
