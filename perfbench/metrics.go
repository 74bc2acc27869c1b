package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// metricSpec declares one metric the benchmark prints: its name, unit
// and which direction is better. BENCHMARK.json at the repository root
// declares the same set (TestMetricsDeclared keeps them in step).
type metricSpec struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd are printed by every untraced run (--trace 0), on every
// workload. Each is defined, and never zero, on all four workloads.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"wall_ref_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"allocs_per_op", "count", "lower"},
	{"sim_cycles_per_query", "cycles", "lower"},
	{"sim_p50_cycles", "cycles", "lower"},
	{"sim_p99_cycles", "cycles", "lower"},
}

// perLayer are printed by every traced run (--trace 1), on every
// workload; a layer the workload does not exercise reads 0.
var perLayer = []metricSpec{
	// Outcomes that exist on some workloads only.
	{"sim_speedup_geomean", "x", "higher"},
	{"sim_write_p99_cycles", "cycles", "lower"},
	{"slo_miss_frac", "ratio", "lower"},
	{"sim_capacity_rpkc", "req/kcycle", "higher"},
	{"failed_frac", "ratio", "lower"},
	{"epoch_violations", "count", "lower"},

	// Host time per layer, from the traced run's spans.
	{"workload.build_s", "s", "lower"},
	{"workload.nonroi_s", "s", "lower"},
	{"workload.roi_s", "s", "lower"},
	{"workload.qei_run_s", "s", "lower"},
	{"baseline.run_s", "s", "lower"},
	{"serve.gen_s", "s", "lower"},
	{"serve.self_s", "s", "lower"},
	{"system.build_s", "s", "lower"},
	{"system.query_s", "s", "lower"},
	{"system.query_ns_p50", "ns", "lower"},
	{"system.query_ns_p99", "ns", "lower"},
	{"system.batch_s", "s", "lower"},
	{"system.batch_ns_p50", "ns", "lower"},
	{"system.batch_ns_p99", "ns", "lower"},
	{"system.write_s", "s", "lower"},
	{"baseline.failover_s", "s", "lower"},
	{"sim.host_ns_per_kcycle", "ns/kcycle", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},

	// Simulated counts, exact for a given seed.
	{"cpu.instructions", "count", "lower"},
	{"cpu.ipc", "ratio", "higher"},
	{"cpu.rob_stall_cycles", "cycles", "lower"},
	{"cpu.branch_mispredicts", "count", "lower"},
	{"cpu.frontend_redirect_cycles", "cycles", "lower"},
	{"cache.l1d_miss_ratio", "ratio", "lower"},
	{"cache.l2_misses", "count", "lower"},
	{"cache.llc_hits", "count", "higher"},
	{"cache.dram_accesses", "count", "lower"},
	{"tlb.walks", "count", "lower"},
	{"tlb.walk_cycles", "cycles", "lower"},
	{"qei.translation_cycles", "cycles", "lower"},
	{"noc.sends", "count", "lower"},
	{"noc.bytes", "bytes", "lower"},
	{"qei.cmp_remote", "count", "lower"},
	{"cfa.transitions_per_query", "ratio", "lower"},
	{"qei.lines_per_query", "ratio", "lower"},
	{"qei.data_access_cycles", "cycles", "lower"},
	{"qei.qst_occupancy", "entries", "higher"},
	{"qei.qst_stall_cycles", "cycles", "lower"},
	{"serve.throttled", "count", "lower"},
	{"qei.batch.levels", "count", "lower"},
	{"qei.batch.translations_saved", "count", "higher"},
	{"qei.batch.coalesced_probes", "count", "higher"},
	{"qei.batch.deferred", "count", "lower"},
	{"serve.batches", "count", "lower"},
	{"serve.mean_batch_size", "ratio", "higher"},
	{"qei.exceptions", "count", "lower"},
	{"qei.attempts_per_query", "ratio", "lower"},
	{"serve.retries", "count", "lower"},
	{"serve.failover", "count", "lower"},
	{"serve.shed", "count", "lower"},
	{"serve.breaker_trips", "count", "lower"},
	{"serve.breaker_fast_fails", "count", "lower"},
	{"faultinject.injected", "count", "lower"},
	{"epoch.retired", "count", "lower"},
	{"epoch.reclaimed", "count", "higher"},
	{"dstruct.splits", "count", "lower"},
	{"dstruct.merges", "count", "lower"},
}

// metricValue is one printed metric, in the result line's schema.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// render fills the printed metric set from the measured values: every
// declared metric must have been measured, and nothing undeclared may
// have been.
func render(specs []metricSpec, got map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(specs))
	for _, s := range specs {
		v, ok := got[s.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", s.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", s.Name, v)
		}
		out[s.Name] = metricValue{Value: v, Unit: s.Unit}
	}
	var extra []string
	for name := range got {
		if _, ok := out[name]; !ok {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return nil, fmt.Errorf("undeclared metrics measured: %s", strings.Join(extra, ", "))
	}
	return out, nil
}

// quantile returns the q-quantile of xs by nearest rank (xs need not be
// sorted; it is not modified). It returns 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// median is the middle value of xs (mean of the two middle values for
// an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean is the arithmetic mean of xs (0 when empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// geomean is the geometric mean of positive xs.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// ratio is a/b, or 0 when b is 0 (a counter ratio on a layer the
// workload never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
