package main

// metricDef is one reported metric. BENCHMARK.json lists the same names,
// units and directions (a test keeps the two in step); moves records,
// before any measurement, which end-to-end metric a per-layer metric
// should move and on which workload.
type metricDef struct {
	name, unit, better string
	moves              string
}

// e2eMetrics come from untraced runs. "msg" is a completed request
// (request and its reply); host metrics are medians over the run's
// repetitions, with host times scaled by the reference job (refjob.go);
// simulated ones are exact for the seed.
var e2eMetrics = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},                // cluster.New to every channel's first Ping returned
	{name: "run_s", unit: "s", better: "lower"},                  // host time of the measured phase and its drain
	{name: "msgs_per_host_s", unit: "1/s", better: "higher"},     // completed msgs per host second of run_s
	{name: "allocs_per_msg", unit: "count", better: "lower"},     // Go mallocs in the run phase per completed msg
	{name: "live_heap_mb", unit: "MB", better: "lower"},          // heap after a forced GC, world still reachable
	{name: "sim_p50_us", unit: "us", better: "lower"},            // request→response, simulated
	{name: "sim_p99_us", unit: "us", better: "lower"},            // request→response, simulated
	{name: "sim_kops", unit: "kops/s", better: "higher"},         // msgs completed within the window per simulated second
	{name: "sim_goodput_gbps", unit: "Gbit/s", better: "higher"}, // request+reply payload completed within the window
	{name: "success_frac", unit: "frac", better: "higher"},       // 1 − fail_frac (fail_frac is 0 on every passing run)
}

// layerMetrics come from the traced run. Per-msg counts divide a counter's
// change over the run phase by the msgs completed in it.
// xrdma.useful_poll_frac is ContextStats Dispatched/Polls: completions
// dispatched per poll, which exceeds 1 when polls find batches.
var layerMetrics = []metricDef{
	{"sim.events_per_msg", "count", "lower", "msgs_per_host_s up on mux-fanout; rpc-small unchanged"},
	{"xrdma.polls_per_msg", "count", "lower", "msgs_per_host_s up on mux-fanout; rpc-small unchanged"},
	{"xrdma.useful_poll_frac", "ratio", "higher", "msgs_per_host_s up on mux-fanout; rpc-small unchanged"},
	{"xrdma.event_wakes_per_msg", "count", "lower", "msgs_per_host_s up on mux-fanout; rpc-small unchanged"},

	{"xrdma.allocs_per_msg", "count", "lower", "allocs_per_msg down, msgs_per_host_s up on rpc-small and mux-fanout; incast-large barely moves"},
	{"sim.allocs_per_msg", "count", "lower", "allocs_per_msg down, msgs_per_host_s up on rpc-small and mux-fanout; incast-large barely moves"},
	{"fabric.allocs_per_msg", "count", "lower", "allocs_per_msg down, msgs_per_host_s up on rpc-small and mux-fanout; incast-large barely moves"},
	{"rnic.allocs_per_msg", "count", "lower", "allocs_per_msg down, msgs_per_host_s up on rpc-small and mux-fanout; incast-large barely moves"},
	{"runtime.gc_cpu_frac", "frac", "lower", "allocs_per_msg down, msgs_per_host_s up on rpc-small and mux-fanout; incast-large barely moves"},
	{"runtime.gc_cycles", "count", "lower", "allocs_per_msg down, msgs_per_host_s up on rpc-small and mux-fanout; incast-large barely moves"},

	{"sim.ns_per_event", "ns", "lower", "msgs_per_host_s up on every workload, most on mux-fanout"},
	{"sim.pending_max", "count", "lower", "msgs_per_host_s up on every workload, most on mux-fanout"},
	{"sim.slice_ms_p50", "ms", "lower", "msgs_per_host_s up on every workload, most on mux-fanout"},
	{"sim.slice_ms_p99", "ms", "lower", "msgs_per_host_s up on every workload, most on mux-fanout"},
	{"sim.cpu_share", "frac", "lower", "msgs_per_host_s up on every workload, most on mux-fanout"},

	{"fabric.pkts_per_msg", "count", "lower", "msgs_per_host_s up on incast-large"},
	{"fabric.cpu_share", "frac", "lower", "msgs_per_host_s up on incast-large"},
	{"rnic.pkts_sent_per_msg", "count", "lower", "msgs_per_host_s up on incast-large"},
	{"rnic.cpu_share", "frac", "lower", "msgs_per_host_s up on incast-large"},

	{"fabric.ecn_marks_per_msg", "count", "lower", "sim_p99_us and sim_goodput_gbps on incast-large; identical under a speed-only change"},
	{"fabric.pause_tx", "count", "lower", "sim_p99_us and sim_goodput_gbps on incast-large; identical under a speed-only change"},
	{"fabric.drops", "count", "lower", "sim_p99_us and sim_goodput_gbps on incast-large; identical under a speed-only change"},
	{"rnic.cnps", "count", "lower", "sim_p99_us and sim_goodput_gbps on incast-large; identical under a speed-only change"},
	{"rnic.retransmits", "count", "lower", "sim_p99_us and sim_goodput_gbps on incast-large; identical under a speed-only change"},
	{"rnic.rnr_naks", "count", "lower", "sim_p99_us and sim_goodput_gbps on incast-large; identical under a speed-only change"},

	{"rnic.qpcache_miss_frac", "frac", "lower", "sim_p50_us on mux-fanout and rpc-small"},
	{"xrdma.acks_per_msg", "count", "lower", "sim_p50_us on mux-fanout and rpc-small"},
	{"xrdma.nops_per_msg", "count", "lower", "sim_p50_us on mux-fanout and rpc-small"},

	{"cluster.build_s", "s", "lower", "setup_s, mainly on mux-fanout"},
	{"xrdma.establish_s", "s", "lower", "setup_s, mainly on mux-fanout"},
	{"verbs.cm_events", "count", "lower", "setup_s, mainly on mux-fanout"},

	{"xrdma.sendmsg_ns", "ns", "lower", "msgs_per_host_s up on rpc-small"},
	{"xrdma.reply_ns", "ns", "lower", "msgs_per_host_s up on rpc-small"},
	{"xrdma.cpu_share", "frac", "lower", "msgs_per_host_s up on rpc-small"},
	{"telemetry.cpu_share", "frac", "lower", "msgs_per_host_s up on rpc-small"},
	{"xrmon.cpu_share", "frac", "lower", "msgs_per_host_s up on rpc-small"},
	{"workload.cpu_share", "frac", "lower", "msgs_per_host_s up on rpc-small"},
	{"runtime.cpu_share", "frac", "lower", "msgs_per_host_s up on rpc-small"},
	{"verbs.cpu_share", "frac", "lower", "completes the cpu_share buckets (they sum to 1)"},
	{"other.cpu_share", "frac", "lower", "completes the cpu_share buckets (they sum to 1)"},

	{"trace.overhead_frac", "frac", "lower", "none: traced run_s over untraced run_s, minus 1"},
}
