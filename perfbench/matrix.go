package main

import (
	"fmt"
	"runtime"
	"time"

	"qei/internal/machine"
	"qei/internal/metrics"
	"qei/internal/scheme"
	"qei/internal/workload"
)

// matrixBenches is workload.AllSmall() with every application's
// structure seed derived from the benchmark seed.
func matrixBenches(seed int64) []workload.Benchmark {
	dpdk, jvm, rocks, snort, flann := workload.SmallDPDK(), workload.SmallJVM(), workload.SmallRocksDB(), workload.SmallSnort(), workload.SmallFLANN()
	dpdk.Seed = derive(seed, "dpdk")
	jvm.Seed = derive(seed, "jvm")
	rocks.Seed = derive(seed, "rocksdb")
	snort.Seed = derive(seed, "snort")
	flann.Seed = derive(seed, "flann")
	return []workload.Benchmark{dpdk, jvm, rocks, snort, flann}
}

// cell is one run of the bench matrix: an application under software
// (scheme "software") or one integration scheme.
type cell struct {
	app, scheme string
	run         workload.Run
	wall        time.Duration
	// scaled is the cell's host time in seconds at the reference speed
	// (see refClock); it equals wall when the pass had no clock.
	scaled float64
}

// matrixPass runs the bench matrix the way qeibench -exp bench does:
// per application, the warmed Full-mode software baseline, then the
// warmed Full-mode blocking QUERY_B run under each of the five schemes
// with a metrics registry attached. Every run builds its own
// structures. Each call is a span under parent (tr is nil when untraced)
// and, when clk is not nil, is also timed against the reference kernel.
func matrixPass(benches []workload.Benchmark, tr *tracer, parent int, clk *refClock) ([]cell, error) {
	var cells []cell
	timed := func(name string, f func() (workload.Run, error)) (c cell, err error) {
		// Every cell starts from a collected heap, so the garbage of the
		// cell before is neither timed nor counted in its peak memory.
		runtime.GC()
		id := tr.begin(name, parent)
		defer tr.end(id)
		run := func() (err error) {
			start := time.Now()
			c.run, err = f()
			c.wall = time.Since(start)
			return err
		}
		if clk == nil {
			err = run()
			c.scaled = c.wall.Seconds()
			return c, err
		}
		c.scaled, err = clk.time(run)
		return c, err
	}
	for _, b := range benches {
		sw, err := timed("baseline.run", func() (workload.Run, error) {
			return workload.RunBaseline(b, workload.Full, workload.WithWarmup())
		})
		if err != nil {
			return nil, fmt.Errorf("%s software: %w", b.Name(), err)
		}
		sw.app, sw.scheme = b.Name(), "software"
		cells = append(cells, sw)
		for _, k := range scheme.Kinds() {
			hw, err := timed("workload.qei_run", func() (workload.Run, error) {
				return workload.RunQEI(b, k, workload.Full, workload.WithWarmup(), workload.WithMetrics(metrics.NewRegistry()))
			})
			if err != nil {
				return nil, fmt.Errorf("%s %s: %w", b.Name(), k, err)
			}
			hw.app, hw.scheme = b.Name(), k.String()
			cells = append(cells, hw)
		}
	}
	return cells, nil
}

// matrixSetup builds every application's structures once on a fresh
// default machine, checking that the seeded inputs build before any
// timed run. It is the matrix's set-up; the timed runs build again.
func matrixSetup(benches []workload.Benchmark, tr *tracer, parent int) error {
	for _, b := range benches {
		id := tr.begin("workload.build", parent)
		_, err := b.Build(machine.NewDefault())
		tr.end(id)
		if err != nil {
			return fmt.Errorf("%s build: %w", b.Name(), err)
		}
	}
	return nil
}

// matrixSplit times each application's Core-integrated run restricted
// to its non-ROI work (filler instructions through the core model) and
// to its ROI (the queries alone), as spans under parent.
func matrixSplit(benches []workload.Benchmark, tr *tracer, parent int) error {
	for _, b := range benches {
		for _, m := range []struct {
			name string
			mode workload.Mode
		}{{"workload.nonroi", workload.NonROIOnly}, {"workload.roi", workload.ROIOnly}} {
			id := tr.begin(m.name, parent)
			_, err := workload.RunQEI(b, scheme.CoreIntegrated, m.mode, workload.WithWarmup())
			tr.end(id)
			if err != nil {
				return fmt.Errorf("%s %s: %w", b.Name(), m.name, err)
			}
		}
	}
	return nil
}

// matrixMismatches counts wrong probe results over a pass.
func matrixMismatches(cells []cell) (probes, wrong int64) {
	for _, c := range cells {
		probes += int64(c.run.Queries)
		wrong += int64(c.run.Mismatches)
	}
	return probes, wrong
}

// sameSimulation reports whether two passes produced identical
// simulated results, cell by cell.
func sameSimulation(a, b []cell) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i].run, b[i].run
		if a[i].app != b[i].app || a[i].scheme != b[i].scheme || x.Cycles != y.Cycles ||
			x.Queries != y.Queries || x.Core != y.Core || x.DRAMAccesses != y.DRAMAccesses ||
			x.NoCBytes != y.NoCBytes || x.PageWalks != y.PageWalks {
			return false
		}
	}
	return true
}

// matrixSim computes the simulated end-to-end metrics of one pass:
// the geomean over applications of software cycles / Core-integrated
// cycles, and the geomean, median and 99th percentile (nearest rank,
// i.e. the slowest) of the 25 accelerated cells' cycles per query.
func matrixSim(cells []cell) (speedup, cpqGeo, cpqP50, cpqP99 float64) {
	sw := map[string]uint64{}
	var speedups, cpq []float64
	for _, c := range cells {
		if c.scheme == "software" {
			sw[c.app] = c.run.Cycles
			continue
		}
		cpq = append(cpq, float64(c.run.Cycles)/float64(c.run.Queries))
		if c.scheme == scheme.CoreIntegrated.String() {
			speedups = append(speedups, float64(sw[c.app])/float64(c.run.Cycles))
		}
	}
	return geomean(speedups), geomean(cpq), quantile(cpq, 0.5), quantile(cpq, 0.99)
}

// matrixCounters sums the simulated counters of a pass: the core model
// over all 30 cells' measured windows, and the component registries of
// the 25 accelerated cells (those cover the warm-up pass too).
func matrixCounters(cells []cell, got map[string]float64) {
	var core struct{ instr, cycles, rob, mispred, redirect float64 }
	acc := counters{}
	accelerated := 0
	for _, c := range cells {
		if c.scheme != "software" {
			accelerated++
		}
		st := c.run.Core
		core.instr += float64(st.Instructions)
		core.cycles += float64(st.Cycles)
		core.rob += float64(st.ROBStallCycles)
		core.mispred += float64(st.Mispredicts)
		core.redirect += float64(st.FrontendCycles)
		for _, m := range c.run.Metrics {
			acc[m.Name] += m.Value
		}
	}
	got["cpu.instructions"] = core.instr
	got["cpu.ipc"] = ratio(core.instr, core.cycles)
	got["cpu.rob_stall_cycles"] = core.rob
	got["cpu.branch_mispredicts"] = core.mispred
	got["cpu.frontend_redirect_cycles"] = core.redirect
	acc.memoryLayers(got)
	acc.engineLayers(got, accelerated)
}
