package main

// metricDef is one entry of BENCHMARK.json. The two tables below are
// the single source of the names and units the program emits;
// TestBenchmarkJSONMatchesProgram holds BENCHMARK.json to them.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // end-to-end only
}

// endToEnd is what a user of the system sees. The same six are
// reported on every workload. How a run's rounds are reduced to one
// value is told in live.go (setups) and sim.go (runSim).
// A bound is at least three times the widest interquartile range (over
// its median) any workload showed for the metric in CALIBRATION.md; the
// timing metrics have the benchmark contract's cap of a quarter, because
// the driver's machine has been twice as noisy as this one.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ok_ops_pct", "%", "higher", 0.001},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"read_mean_us", "us", "lower", 0.25},
	{"read_p90_us", "us", "lower", 0.25},
	{"mem_served_pct", "%", "higher", 0.02},
}

// perLayer is reported by the traced run (-trace 1). A metric a
// workload does not exercise reads 0 there (the README table says
// which workload each belongs to).
var perLayer = []metricDef{
	{"core.observe_ns", "ns", "lower", 0},
	{"core.driver_step_ns", "ns", "lower", 0},
	{"core.prefetch_issued", "count", "lower", 0},
	{"core.prefetch_timely", "count", "higher", 0},
	{"core.prefetch_late", "count", "lower", 0},
	{"core.prefetch_wasted", "count", "lower", 0},
	{"core.prefetch_accuracy_pct", "%", "higher", 0},
	{"core.file_outstanding_hw", "count", "lower", 0},

	{"sim.events_fired", "count", "lower", 0},
	{"sim.event_ns", "ns", "lower", 0},
	{"experiment.cell_ms.pafs_charisma", "ms", "lower", 0},
	{"experiment.cell_ms.xfs_charisma", "ms", "lower", 0},
	{"experiment.cell_ms.pafs_sprite", "ms", "lower", 0},
	{"experiment.cell_ms.xfs_sprite", "ms", "lower", 0},
	{"workload.gen_ms", "ms", "lower", 0},
	{"fscommon.disk_util_pct", "%", "lower", 0},
	{"fscommon.net_util_pct", "%", "lower", 0},
	{"fscommon.disk_accesses", "count", "lower", 0},

	{"lapcache.engine_hit_ns", "ns", "lower", 0},
	{"lapcache.engine_miss_ns", "ns", "lower", 0},
	{"lapcache.engine_write_ns", "ns", "lower", 0},
	{"lapcache.demand_hits", "count", "higher", 0},
	{"lapcache.demand_misses", "count", "lower", 0},
	{"lapcache.store_reads", "count", "lower", 0},
	{"lapcache.store_writes", "count", "lower", 0},
	{"lapcache.prefetch_dropped", "count", "lower", 0},
	{"lapcache.prefetch_dup_skipped", "count", "lower", 0},

	{"blockbuf.allocs", "count", "lower", 0},
	{"blockbuf.recycles", "count", "higher", 0},
	{"blockbuf.get_release_ns", "ns", "lower", 0},

	{"wire.encode_ns", "ns", "lower", 0},
	{"wire.parse_ns", "ns", "lower", 0},
	{"wire.loopback_floor_ns", "ns", "lower", 0},

	{"lapclient.rtt_hit_ns", "ns", "lower", 0},
	{"lapclient.unattributed_ns", "ns", "lower", 0},
	{"lapclient.read_p50_us", "us", "lower", 0},
	{"lapclient.read_p99_us", "us", "lower", 0},
	{"lapclient.write_mean_us", "us", "lower", 0},
	{"lapclient.write_p90_us", "us", "lower", 0},

	{"cluster.ring_owner_ns", "ns", "lower", 0},
	{"cluster.remote_hit_ns", "ns", "lower", 0},
	{"cluster.remote_reads", "count", "lower", 0},
	{"cluster.remote_hits", "count", "higher", 0},
	{"cluster.remote_fallbacks", "count", "lower", 0},
	{"cluster.forwarded_writes", "count", "lower", 0},
	{"cluster.peer_reads_served", "count", "lower", 0},
	{"cluster.remote_share_pct", "%", "lower", 0},

	{"bench.record_ns", "ns", "lower", 0},
	{"bench.tracing_overhead_pct", "%", "lower", 0},
	{"bench.round_spread_pct", "%", "lower", 0},
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// values carries metric values by name before they are given units.
type values map[string]float64

// withUnits keeps exactly the metrics defs names, in defs' units. A
// name the run did not set reads 0.
func (v values) withUnits(defs []metricDef) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: v[d.Name], Unit: d.Unit}
	}
	return out
}
