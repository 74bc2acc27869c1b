package main

import (
	"strings"

	"qei"
)

// counters is a set of simulator counters by component-path name
// ("core0/l1d/misses", "qei/queries"), summed when several runs are
// folded together.
type counters map[string]uint64

func systemCounters(ms []qei.Metric) counters {
	c := counters{}
	for _, m := range ms {
		c[m.Name] += m.Value
	}
	return c
}

// sum adds every counter whose name starts with prefix and ends with
// suffix ("core" + "/l1d/misses" covers every core's L1D).
func (c counters) sum(prefix, suffix string) float64 {
	var n uint64
	for name, v := range c {
		if strings.HasPrefix(name, prefix) && strings.HasSuffix(name, suffix) {
			n += v
		}
	}
	return float64(n)
}

func (c counters) get(name string) float64 { return float64(c[name]) }

// coreLayer reads the core model's counters from the registry (the
// serving path's software walker; the matrix reads its cores from
// workload.Run instead).
func (c counters) coreLayer(got map[string]float64) {
	instr := c.sum("core", "/instructions")
	got["cpu.instructions"] = instr
	got["cpu.ipc"] = ratio(instr, c.sum("core", "/cycles"))
	got["cpu.rob_stall_cycles"] = c.sum("core", "/rob/stall_cycles")
	got["cpu.branch_mispredicts"] = c.sum("core", "/branch/mispredicts")
	got["cpu.frontend_redirect_cycles"] = c.sum("core", "/frontend/redirect_cycles")
}

// memoryLayers reads the cache, TLB and NoC counters.
func (c counters) memoryLayers(got map[string]float64) {
	l1Miss := c.sum("core", "/l1d/misses")
	got["cache.l1d_miss_ratio"] = ratio(l1Miss, l1Miss+c.sum("core", "/l1d/hits"))
	got["cache.l2_misses"] = c.sum("core", "/l2/misses")
	got["cache.llc_hits"] = c.sum("cha", "/llc/hits")
	got["cache.dram_accesses"] = c.get("dram/accesses")
	got["tlb.walks"] = c.sum("", "/tlb/walker/walks")
	got["tlb.walk_cycles"] = c.sum("", "/tlb/walker/walk_cycles")
	got["noc.sends"] = c.get("noc/sends")
	got["noc.bytes"] = c.get("noc/total_bytes")
}

// engineLayers reads the accelerator's counters. runs is how many
// accelerator instances the counters were summed over, for the mean
// QST occupancy.
func (c counters) engineLayers(got map[string]float64, runs int) {
	queries := c.get("qei/queries")
	got["qei.translation_cycles"] = c.get("qei/translation_cycles")
	got["qei.data_access_cycles"] = c.get("qei/data_access_cycles")
	got["qei.cmp_remote"] = c.get("qei/cmp/remote")
	got["cfa.transitions_per_query"] = ratio(c.get("qei/cee/transitions"), queries)
	got["qei.lines_per_query"] = ratio(c.get("qei/mem/lines"), queries)
	got["qei.qst_occupancy"] = ratio(c.get("qei/qst/occupancy_milli")/1000, float64(runs))
	got["qei.qst_stall_cycles"] = c.get("qei/qst/stall_cycles")
	got["qei.batch.levels"] = c.get("qei/batch/levels")
	got["qei.batch.translations_saved"] = c.get("qei/batch/translations_saved")
	got["qei.batch.coalesced_probes"] = c.get("qei/batch/coalesced_probes")
	got["qei.batch.deferred"] = c.get("qei/batch/deferred")
	got["qei.exceptions"] = c.get("qei/exceptions")
	// Engine executions per completed query: retry-from-root recoveries
	// are wasted attempts.
	got["qei.attempts_per_query"] = ratio(queries+c.get("qei/retries"), queries)
}
