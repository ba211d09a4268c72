package main

import (
	"math"
	"sort"
)

// metricDef declares one metric: BENCHMARK.json carries the same names,
// units, directions and bounds, and bench_test.go holds the two equal.
type metricDef struct {
	name, unit string
	better     string  // "lower" or "higher"; end-to-end only
	bound      float64 // share of the base by which it may worsen; end-to-end only
}

// endToEnd is what a user of the simulator sees; every workload reports
// all of them from a pass with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"events_per_s", "1/s", "higher", 0.15},
	{"op_p50_s", "s", "lower", 0.15},
	{"op_p90_s", "s", "lower", 0.2},
	{"allocs_per_op", "count", "lower", 0.05},
	{"bytes_per_op", "B", "lower", 0.05},
	{"peak_rss_mb", "MB", "lower", 0.2},
}

// perLayer is measured in the traced pass, from outside each package. A
// metric whose layer is not on a workload's path reads 0 there.
var perLayer = []metricDef{
	{name: "circuit.build_s", unit: "s"},
	{name: "circuit.stimulus_s", unit: "s"},
	{name: "circuit.nodes", unit: "count"},
	{name: "circuit.edges", unit: "count"},
	{name: "circuit.depth", unit: "count"},
	{name: "circuit.initial_events", unit: "count"},

	{name: "partition.plan_s", unit: "s"},
	{name: "partition.edge_cut_fraction", unit: "ratio"},
	{name: "partition.load_balance", unit: "ratio"},

	{name: "queue.deque_ns_op", unit: "ns"},
	{name: "queue.heap_ns_op", unit: "ns"},
	{name: "queue.arena_ns_op", unit: "ns"},

	{name: "core.run_s", unit: "s"},
	{name: "core.ns_per_event", unit: "ns"},
	{name: "core.envelope_s", unit: "s"},
	{name: "core.engine_new_s", unit: "s"},
	{name: "core.seq_ref_s", unit: "s"},
	{name: "core.vs_seq_ratio", unit: "ratio"},
	{name: "core.ckpt_overhead_ratio", unit: "ratio"},
	{name: "core.ckpt_bytes", unit: "B"},

	{name: "hj.spawns", unit: "count"},
	{name: "hj.remote_spawns", unit: "count"},
	{name: "hj.steals", unit: "count"},
	{name: "hj.stolen_tasks", unit: "count"},
	{name: "hj.parks", unit: "count"},
	{name: "hj.lock_acquires", unit: "count"},
	{name: "hj.lock_failures", unit: "count"},
	{name: "hj.events_per_spawn", unit: "ratio"},
	{name: "hj.lock_success_ratio", unit: "ratio"},
	{name: "hj.steal_ratio", unit: "ratio"},
	{name: "hj.spawn_ns", unit: "ns"},
	{name: "hj.finish_ns", unit: "ns"},
	{name: "hj.runtime_start_s", unit: "s"},

	{name: "lp.event_msgs", unit: "count"},
	{name: "lp.null_msgs", unit: "count"},
	{name: "lp.piggy_nulls", unit: "count"},
	{name: "lp.batches", unit: "count"},
	{name: "lp.cut_edges", unit: "count"},
	{name: "lp.nmr", unit: "ratio"},
	{name: "lp.msgs_per_batch", unit: "ratio"},
	{name: "lp.cross_event_fraction", unit: "ratio"},
	{name: "lp.mailbox_ns_msg", unit: "ns"},

	{name: "tw.rollbacks", unit: "count"},
	{name: "tw.undone", unit: "count"},
	{name: "tw.antis", unit: "count"},
	{name: "tw.stragglers", unit: "count"},
	{name: "tw.sweeps", unit: "count"},
	{name: "tw.efficiency", unit: "ratio"},

	{name: "obs.trace_overhead_ratio", unit: "ratio"},
	{name: "obs.events_recorded", unit: "count"},

	{name: "serve.submit_s", unit: "s"},
	{name: "serve.queued_s", unit: "s"},
	{name: "serve.run_s", unit: "s"},
	{name: "serve.engine_s", unit: "s"},
	{name: "serve.envelope_s", unit: "s"},
	{name: "serve.poll_lag_s", unit: "s"},
	{name: "serve.jobs_per_s", unit: "1/s"},
	{name: "serve.job_p99_s", unit: "s"},
	{name: "serve.rejected", unit: "count"},
	{name: "serve.pool_reuse_ratio", unit: "ratio"},
	{name: "serve.envelope_share", unit: "ratio"},
}

// metricValue is one reported number, as the driver's JSON line spells it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report turns measured values into the declared metric set: every
// declared name once, with its unit. A per-layer name nothing measured
// reads 0.
func report(defs []metricDef, vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
	}
	return out
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs; 0 for an empty sample.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank p-th percentile (0 < p <= 1) of xs.
func percentile(xs []float64, p float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return 0
	}
	return s[max(int(math.Ceil(p*float64(len(s))))-1, 0)]
}

// spread is the distance between the first and third quartile as a share
// of the median, with the quartiles Python's statistics.quantiles(n=4)
// gives (exclusive method); 0 when there are fewer than two values.
func spread(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	med := median(s)
	if n < 2 || med == 0 {
		return 0
	}
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based rank
		j := min(max(int(pos), 1), n-1)
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return (q(3) - q(1)) / math.Abs(med)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
