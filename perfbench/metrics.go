package main

// metric describes one reported number. End-to-end metrics are what a
// client of spechpcd sees; per-layer metrics come from the traced run
// and name the end-to-end metric (and workloads) they should move.
type metric struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	moves  string // per-layer only: which end-to-end metric, on which workloads
}

// endToEnd is reported by every untraced run, in this order. Two more
// end-to-end numbers are printed beside them but not tracked: fail_frac
// is 0 on a correct run (and travels as the failed/attempted counts),
// and peak_rss_mb, the run's VmHWM, swings by 20-40% between identical
// runs with the moment a transient allocation meets a collection.
var endToEnd = []metric{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "jobs_per_s", unit: "1/s", better: "higher"},
	{name: "latency_p50_ms", unit: "ms", better: "lower"},
	{name: "latency_tail_ms", unit: "ms", better: "lower"},
}

const (
	onServeP50   = "latency_p50_ms on serve-mix"
	onServeBoth  = "jobs_per_s and latency_p50_ms on serve-mix"
	onSweepJobs  = "jobs_per_s on sweep-cold"
	onSweepP50   = "latency_p50_ms on sweep-cold"
	onMultiP50   = "latency_p50_ms on multinode-cold"
	onSimJobs    = "jobs_per_s on sweep-cold and multinode-cold"
	onAllJobsRSS = "jobs_per_s on all workloads, and peak_rss_mb"
)

// perLayer is printed by every traced run and makes up its ledger.
var perLayer = []metric{
	{"bench.requests", "count", "higher", "the n behind every latency percentile"},
	{"trace.overhead_frac", "ratio", "lower", "jobs_per_s of the traced run versus the untraced run"},

	{"service.submit_ms_p50", "ms", "lower", onServeP50},
	{"service.submit_ms_tail", "ms", "lower", onServeP50},
	{"service.poll_ms_p50", "ms", "lower", "latency_p50_ms on serve-mix and sweep-cold"},
	{"service.polls_per_request", "count", "lower", "jobs_per_s on sweep-cold and multinode-cold"},
	{"service.resp_kb_per_request", "kB", "lower", onServeP50},
	{"service.non2xx", "count", "lower", "fail_frac on all workloads"},

	{"campaign.memo_hits", "count", "higher", onServeBoth},
	{"campaign.coalesced", "count", "higher", onServeBoth},
	{"campaign.store_hits", "count", "higher", onServeBoth},
	{"campaign.fresh_sims", "count", "lower", onServeBoth},
	{"campaign.surrogate_hits", "count", "higher", onServeBoth},
	{"campaign.surrogate_refused", "count", "lower", onServeBoth},
	{"campaign.surrogate_misses", "count", "lower", onServeBoth},
	{"campaign.hit_ratio", "ratio", "higher", onServeBoth},
	{"campaign.wait_ms_p50", "ms", "lower", "latency_tail_ms on sweep-cold"},
	{"campaign.grants", "count", "higher", "equals requests on multinode-cold, 0 on sweep-cold"},

	{"store.get_ms_p50", "ms", "lower", onServeP50},
	{"store.get_ms_tail", "ms", "lower", onServeP50},
	{"store.get_hit_ratio", "ratio", "higher", onServeP50},
	{"store.put_ms_p50", "ms", "lower", onSweepJobs},
	{"store.gets", "count", "lower", onSweepJobs},
	{"store.puts", "count", "lower", onSweepJobs},
	{"store.record_kb", "kB", "lower", onSweepJobs},

	{"surrogate.predict_us_p50", "us", "lower", onServeP50},
	{"surrogate.observe_us_p50", "us", "lower", onServeP50},
	{"surrogate.answer_ratio", "ratio", "higher", onServeP50},
	{"surrogate.models", "count", "higher", onServeP50},

	{"scenario.parse_ms", "ms", "lower", onSweepP50},
	{"scenario.expand_ms", "ms", "lower", onSweepP50},
	{"scenario.jobs_per_doc", "count", "higher", onSweepP50},
	{"scenario.render_lag_ms", "ms", "lower", onSweepP50},

	{"spec.run_ms_p50", "ms", "lower", onMultiP50},
	{"spec.run_ms_tail", "ms", "lower", onMultiP50},
	{"spec.runs", "count", "lower", onMultiP50},
	{"spec.sim_core_s_per_s", "s/s", "higher", onSimJobs},

	{"psim.runs", "count", "higher", onMultiP50},
	{"psim.windows_per_run", "count", "lower", onMultiP50},
	{"psim.mail_per_run", "count", "lower", onMultiP50},
	{"psim.idle_frac", "ratio", "lower", onMultiP50},
	{"psim.widened_frac", "ratio", "higher", onMultiP50},

	{"go.allocs_per_job", "count", "lower", onAllJobsRSS},
	{"go.alloc_mb_per_job", "MB", "lower", onAllJobsRSS},
	{"go.gc_cycles", "count", "lower", onAllJobsRSS},
	{"go.gc_cpu_frac", "ratio", "lower", onAllJobsRSS},
}

// cpuBuckets are the profile buckets, each reported as cpu.<bucket>: the
// share of the traced run's CPU samples attributed to it.
var cpuBuckets = []struct{ name, moves string }{
	{"sim.eventq", onMultiP50},
	{"sim.psresource", onMultiP50},
	{"sim.other", onMultiP50},
	{"psim", onMultiP50},
	{"mpi", onMultiP50},
	{"netsim", onMultiP50},
	{"machine", onSweepJobs},
	{"kernels", onSweepJobs},
	{"spec_trace", onSimJobs},
	{"campaign", onServeP50},
	{"surrogate", onServeP50},
	{"scenario_render", onServeP50},
	{"service", onServeP50},
	{"json", onServeP50},
	{"net_io", onServeP50},
	{"runtime_sched", onMultiP50},
	{"runtime_gc_alloc", onAllJobsRSS},
	{"other", "nothing: the named buckets must hold at least 90%"},
}

// Bucket groups for the workload role checks: simulatorBuckets and
// servingBuckets are the two sides of the profile, and simBuckets is the
// share multinode-cold must hold the majority of, counting the goroutine
// hand-off the simulator's coroutines cause.
var (
	simulatorBuckets = []string{"sim.eventq", "sim.psresource", "sim.other", "psim",
		"mpi", "netsim", "machine", "kernels", "spec_trace"}
	servingBuckets = []string{"campaign", "surrogate", "scenario_render",
		"service", "json", "net_io"}
	simBuckets = []string{"sim.eventq", "sim.psresource", "sim.other", "psim",
		"mpi", "netsim", "machine", "kernels", "runtime_sched"}
)

// allPerLayer is every per-layer metric in ledger order.
func allPerLayer() []metric {
	out := append([]metric(nil), perLayer...)
	for _, b := range cpuBuckets {
		out = append(out, metric{"cpu." + b.name, "ratio", "lower", b.moves})
	}
	return out
}
