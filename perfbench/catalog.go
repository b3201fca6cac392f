package main

// metricDef names one reported metric. The lists below mirror
// BENCHMARK.json (a test keeps them in step).
type metricDef struct {
	name, unit, better string
}

// endToEnd metrics are printed by every untraced run, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"step_p50_ms", "ms", "lower"},
	{"step_p99_ms", "ms", "lower"},
	{"goodput_per_s", "1/s", "higher"},
	{"ls_ok_pct", "%", "higher"},
	{"heap_mb", "MiB", "lower"},
}

// perLayer metrics are printed by every traced run, on every workload; a
// layer the workload leaves idle reads 0.
var perLayer = []metricDef{
	{"sim.events", "count", "higher"},
	{"sim.events_per_sim_ms", "count", "higher"},
	{"sim.ns_per_event", "ns", "lower"},
	{"sim.pending_max", "count", "lower"},
	{"sim.sim_s_per_s", "s/s", "higher"},

	{"workload.arrivals", "count", "higher"},
	{"workload.issued", "count", "higher"},
	{"workload.completed", "count", "higher"},
	{"workload.shed", "count", "lower"},
	{"workload.queued_max", "count", "lower"},
	{"workload.completed_per_host_s", "1/s", "higher"},

	{"hca.msgs_sent", "count", "higher"},
	{"hca.bytes_sent", "B", "higher"},
	{"hca.cq_overruns", "count", "lower"},
	{"hca.stall_episodes", "count", "lower"},

	{"fabric.link_busy_pct", "%", "higher"},
	{"fabric.max_queued", "count", "lower"},
	{"fabric.packets", "count", "higher"},

	{"xen.pcpu_busy_pct", "%", "lower"},
	{"xen.capped_vms", "count", "lower"},

	{"resex.intervals", "count", "higher"},
	{"resex.cap_changes", "count", "lower"},

	{"exchange.trades", "count", "higher"},
	{"exchange.mean_price", "count", "lower"},
	{"exchange.close_epoch_ms", "ms", "lower"},

	{"schedshard.round_p50_ms", "ms", "lower"},
	{"schedshard.round_p99_ms", "ms", "lower"},
	{"schedshard.publish_ms", "ms", "lower"},
	{"schedshard.rounds_per_wave", "count", "lower"},
	{"schedshard.conflicts", "count", "lower"},
	{"schedshard.commit_ratio", "count", "higher"},
	{"schedshard.retries", "count", "lower"},
	{"schedshard.gangs_placed", "count", "higher"},
	{"schedshard.gangs_failed", "count", "lower"},
	{"schedshard.gangs_partial", "count", "lower"},
	{"schedshard.ns_per_placement", "ns", "lower"},
	{"schedshard.allocs_per_placement", "count", "lower"},

	{"simpar.windows", "count", "higher"},
	{"simpar.boundaries", "count", "higher"},
	{"simpar.msgs", "count", "higher"},
	{"simpar.msgs_per_window", "count", "higher"},
	{"simpar.events_per_window", "count", "higher"},
	{"simpar.ns_per_window", "ns", "lower"},

	{"daemon.apply_us", "us", "lower"},
	{"daemon.step_ms", "ms", "lower"},

	{"snapshot.capture_us", "us", "lower"},
	{"snapshot.bytes", "B", "lower"},
	{"snapshot.replay_events", "count", "lower"},
	{"snapshot.restore_s", "s", "lower"},

	{"outcome.ls_p50_us", "us", "lower"},
	{"outcome.ls_p99_us", "us", "lower"},
	{"outcome.slo_pct", "%", "higher"},
	{"outcome.coloc_pct", "%", "lower"},
	{"outcome.local_mean_us", "us", "lower"},

	{"gc.cycles", "count", "lower"},
	{"gc.pause_ms", "ms", "lower"},

	{"trace.overhead_pct", "%", "lower"},
	{"trace.spans", "count", "lower"},

	{"self.run_ms", "ms", "lower"},
	{"self.daemon.step_ms", "ms", "lower"},
	{"self.daemon.apply_ms", "ms", "lower"},
	{"self.daemon.restore_ms", "ms", "lower"},
	{"self.snapshot.capture_ms", "ms", "lower"},
	{"self.wave_ms", "ms", "lower"},
	{"self.schedshard.enqueue_ms", "ms", "lower"},
	{"self.schedshard.enqueue_gang_ms", "ms", "lower"},
	{"self.schedshard.round_ms", "ms", "lower"},
	{"self.schedshard.publish_ms", "ms", "lower"},
	{"self.exchange.spend_ms", "ms", "lower"},
	{"self.exchange.close_epoch_ms", "ms", "lower"},
	{"self.depart_ms", "ms", "lower"},
	{"self.geo.fleet_ms", "ms", "lower"},
	{"self.simpar.slice_ms", "ms", "lower"},
}
