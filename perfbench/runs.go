package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"qei"
	"qei/internal/serve"
	"qei/internal/workload"
)

// serveOnly and matrixOnly are the per-layer metrics a workload of the
// other family never reaches; they read 0 there.
var (
	serveOnly = []string{
		"sim_write_p99_cycles", "slo_miss_frac", "sim_capacity_rpkc", "epoch_violations",
		"serve.gen_s", "serve.self_s", "system.build_s", "system.query_s",
		"system.query_ns_p50", "system.query_ns_p99", "system.batch_s",
		"system.batch_ns_p50", "system.batch_ns_p99", "system.write_s",
		"baseline.failover_s", "serve.throttled", "serve.batches",
		"serve.mean_batch_size", "serve.retries", "serve.failover", "serve.shed",
		"serve.breaker_trips", "serve.breaker_fast_fails", "faultinject.injected",
		"epoch.retired", "epoch.reclaimed", "dstruct.splits", "dstruct.merges",
	}
	matrixOnly = []string{
		"sim_speedup_geomean", "workload.build_s", "workload.nonroi_s",
		"workload.roi_s", "workload.qei_run_s", "baseline.run_s",
	}
)

func zero(got map[string]float64, names []string) {
	for _, n := range names {
		got[n] = 0
	}
}

// runMatrix measures the bench matrix. Set-up builds the five
// applications' structures once (repeated; the median is
// setup_s). The timed phase runs whole passes of the matrix; wall_ref_s
// sums, over the 30 cells, each cell's median across passes.
// Every host time is at the reference speed (see refClock).
// attempted and failed count the probes of one pass: every pass must
// reproduce the first pass's simulation, so they depend on the seed
// alone, not on how many passes the host's speed allowed.
func runMatrix(o options) (outcome, error) {
	benches := matrixBenches(o.seed)
	if o.traced {
		return traceMatrix(o, benches)
	}
	clk := newRefClock()
	setup, err := repeatSetup(clk, func() error { return matrixSetup(benches, nil, -1) })
	if err != nil {
		return outcome{}, err
	}
	// Only the first pass's cells are kept: later passes are compared
	// with it and leave their cells' scaled times, so what the process
	// retains does not grow with the pass count.
	var first []cell
	var scaled [][]float64 // per cell, one time per pass
	var walls, allocs []float64
	out := outcome{correct: true}
	start := time.Now()
	for morePasses(walls, 3, time.Since(start).Seconds(), o.seconds) {
		runtime.GC() // start every pass from a collected heap
		m0 := mallocs()
		t0 := time.Now()
		cells, err := matrixPass(benches, nil, -1, clk)
		if err != nil {
			return outcome{}, err
		}
		walls = append(walls, time.Since(t0).Seconds())
		probes, wrong := matrixMismatches(cells)
		allocs = append(allocs, float64(mallocs()-m0)/float64(probes))
		if first == nil {
			first = cells
			scaled = make([][]float64, len(cells))
			out.attempted, out.failed = probes, wrong
		} else if !sameSimulation(first, cells) {
			out.correct = false
		}
		if wrong != 0 {
			out.correct = false
		}
		for i, c := range cells {
			scaled[i] = append(scaled[i], c.scaled)
		}
	}
	out.notes = append(out.notes, fmt.Sprintf("%d passes, raw host seconds %.3f", len(walls), walls), clk.note())
	wall := 0.0
	for _, ds := range scaled {
		wall += median(ds)
	}
	_, cpq, p50, p99 := matrixSim(first)
	out.metrics = map[string]float64{
		"setup_s":              setup,
		"wall_ref_s":           wall,
		"peak_rss_mb":          peakRSSMB(),
		"allocs_per_op":        median(allocs),
		"sim_cycles_per_query": cpq,
		"sim_p50_cycles":       p50,
		"sim_p99_cycles":       p99,
	}
	return out, nil
}

// traceMatrix is the matrix's traced run: set-up builds as
// workload.build spans, one untraced pass, one traced pass with a span
// per cell, then each application's non-ROI-only and ROI-only runs.
func traceMatrix(o options, benches []workload.Benchmark) (outcome, error) {
	tr := newTracer()
	root := tr.begin("perfbench.matrix", -1)
	if err := tr.do("setup", root, func(id int) error { return matrixSetup(benches, tr, id) }); err != nil {
		return outcome{}, err
	}
	var plain []cell
	untraced, err := timeIt(func() (err error) {
		plain, err = matrixPass(benches, nil, -1, nil)
		return err
	})
	if err != nil {
		return outcome{}, err
	}
	var cells []cell
	pass := tr.begin("matrix.pass", root)
	cells, err = matrixPass(benches, tr, pass, nil)
	tr.end(pass)
	if err != nil {
		return outcome{}, err
	}
	if err := tr.do("matrix.split", root, func(id int) error { return matrixSplit(benches, tr, id) }); err != nil {
		return outcome{}, err
	}
	tr.end(root)
	if err := writeSpans(o, tr); err != nil {
		return outcome{}, err
	}

	probes, wrong := matrixMismatches(cells)
	out := outcome{
		correct:   wrong == 0 && sameSimulation(plain, cells),
		attempted: probes,
		failed:    wrong,
		metrics:   map[string]float64{},
	}
	got := out.metrics
	zero(got, serveOnly)
	got["sim_speedup_geomean"], _, _, _ = matrixSim(cells)
	got["workload.build_s"] = tr.total("workload.build")
	got["workload.nonroi_s"] = tr.total("workload.nonroi")
	got["workload.roi_s"] = tr.total("workload.roi")
	got["workload.qei_run_s"] = tr.total("workload.qei_run")
	got["baseline.run_s"] = tr.total("baseline.run")
	traced := float64(tr.spans[pass].End-tr.spans[pass].Start) / 1e9
	got["trace.overhead_frac"] = traced/untraced - 1
	var cycles float64
	for _, c := range plain {
		cycles += float64(c.run.Cycles)
	}
	got["sim.host_ns_per_kcycle"] = untraced * 1e9 / (cycles / 1000)
	matrixCounters(cells, got)
	return out, nil
}

// judge runs the oracle over a serving report and returns the run's
// correctness and failure count. On a fault-free workload every answer
// must be right. Under chaos, wrong answers, surfaced errors and shed
// reads are failures, and the run is correct as long as the report
// accounts for every request.
func judge(cfg qei.ServingConfig, reqs []serve.Request, rep *serve.Report) (verdict, bool, int64) {
	v := checkServing(cfg.GenConfig(), reqs, rep.Results, deadline(cfg))
	tot := rep.Total
	accounted := int64(tot.Requests+tot.Shed) == v.Reads && int64(tot.Writes) == v.Requests-v.Reads &&
		v.ShedLike <= int64(tot.Shed)
	failed := v.Wrong + v.Errors + int64(tot.Shed)
	if cfg.Faults == nil {
		return v, accounted && failed == 0 && v.ShedLike == 0, failed
	}
	return v, accounted, failed
}

// servePass runs one untraced serving pass through qei.ReplayServing.
func servePass(cfg qei.ServingConfig, reqs []serve.Request) (*serve.Report, []byte, error) {
	rep, err := qei.ReplayServing(cfg, cfg.GenConfig(), reqs)
	if err != nil {
		return nil, nil, err
	}
	data, err := json.Marshal(rep)
	return rep, data, err
}

// runServing measures one serving mix. Set-up generates the request
// stream (repeated; the median is setup_s). The timed phase
// serves the stream through qei.ReplayServing, pass after pass;
// wall_ref_s is the median pass after an untimed warm-up pass. Every
// host time is at the reference speed (see refClock). Every pass must
// reproduce the first byte for byte, so attempted and failed count the stream's
// requests once and depend on the seed alone.
func runServing(o options) (outcome, error) {
	n := o.requests
	if n == 0 {
		n = serveRequests
	}
	cfg, err := serveConfig(o.workload, o.seed, n)
	if err != nil {
		return outcome{}, err
	}
	if o.traced {
		return traceServing(o, cfg)
	}
	var reqs []serve.Request
	clk := newRefClock()
	setup, err := repeatSetup(clk, func() (err error) {
		reqs, err = serve.GenerateParallel(cfg.GenConfig(), cfg.GenWorkers)
		return err
	})
	if err != nil {
		return outcome{}, err
	}
	// The first pass warms the heap and the caches: it is checked, and
	// every timed pass must reproduce it, but it is not timed.
	first, firstJSON, err := servePass(cfg, reqs)
	if err != nil {
		return outcome{}, err
	}
	var walls, allocs []float64
	out := outcome{correct: true}
	start := time.Now()
	for morePasses(walls, 3, time.Since(start).Seconds(), o.seconds) {
		runtime.GC() // start every pass from a collected heap
		m0 := mallocs()
		var rep *serve.Report
		var data []byte
		wall, err := clk.time(func() (err error) {
			rep, data, err = servePass(cfg, reqs)
			return err
		})
		if err != nil {
			return outcome{}, err
		}
		walls = append(walls, wall)
		allocs = append(allocs, float64(mallocs()-m0)/float64(len(reqs)))
		if !bytes.Equal(data, firstJSON) || !sameResults(rep.Results, first.Results) {
			out.correct = false
		}
	}
	out.notes = append(out.notes, fmt.Sprintf("%d passes, seconds at reference speed %.3f", len(walls), walls), clk.note())
	v, ok, failed := judge(cfg, reqs, first)
	out.correct = out.correct && ok
	out.notes = append(out.notes, v.note(first.Total.Shed))
	out.attempted = int64(len(reqs))
	out.failed = failed
	lat := readLatencies(reqs, first.Results)
	out.metrics = map[string]float64{
		"setup_s":              setup,
		"wall_ref_s":           median(walls),
		"peak_rss_mb":          peakRSSMB(),
		"allocs_per_op":        median(allocs),
		"sim_cycles_per_query": mean(lat),
		"sim_p50_cycles":       quantile(lat, 0.50),
		"sim_p99_cycles":       quantile(lat, 0.99),
	}
	return out, nil
}

// traceServing is a serving mix's traced run: stream generation as a
// span, one untraced qei.ReplayServing pass, one pass through
// serveTraced (whose report must match the untraced one byte for byte),
// then the capacity ladder.
func traceServing(o options, cfg qei.ServingConfig) (outcome, error) {
	tr := newTracer()
	root := tr.begin("perfbench."+o.workload, -1)
	var reqs []serve.Request
	if err := tr.do("serve.gen", root, func(int) (err error) {
		reqs, err = serve.GenerateParallel(cfg.GenConfig(), cfg.GenWorkers)
		return err
	}); err != nil {
		return outcome{}, err
	}
	var plain *serve.Report
	var plainJSON []byte
	untraced, err := timeIt(func() (err error) {
		plain, plainJSON, err = servePass(cfg, reqs)
		return err
	})
	if err != nil {
		return outcome{}, err
	}
	run := tr.begin("serve.run", root)
	ts, err := serveTraced(cfg, reqs, tr, run, nil)
	tr.end(run)
	if err != nil {
		return outcome{}, err
	}
	tracedJSON, err := json.Marshal(ts.rep)
	if err != nil {
		return outcome{}, err
	}
	var capRPKC float64
	if err := tr.do("serve.capacity", root, func(int) (err error) {
		capRPKC, err = capacity(cfg)
		return err
	}); err != nil {
		return outcome{}, err
	}
	tr.end(root)
	if err := writeSpans(o, tr); err != nil {
		return outcome{}, err
	}

	rep := ts.rep
	v, ok, failed := judge(cfg, reqs, rep)
	out := outcome{
		correct:   ok && bytes.Equal(plainJSON, tracedJSON) && sameResults(plain.Results, rep.Results),
		attempted: int64(len(reqs)),
		failed:    failed,
		metrics:   map[string]float64{},
	}
	got := out.metrics
	zero(got, matrixOnly)
	lat := readLatencies(reqs, rep.Results)
	miss := 0
	for _, l := range lat {
		if l > float64(cfg.SLO) {
			miss++
		}
	}
	tot := rep.Total
	got["sim_write_p99_cycles"] = float64(tot.WriteP99)
	got["slo_miss_frac"] = ratio(float64(miss), float64(v.Reads))
	got["sim_capacity_rpkc"] = capRPKC
	got["epoch_violations"] = float64(rep.EpochViolations)

	got["serve.gen_s"] = tr.total("serve.gen")
	got["serve.self_s"] = tr.self(run)
	got["system.build_s"] = ts.primary.build.seconds()
	got["system.query_s"] = ts.primary.query.seconds()
	got["system.query_ns_p50"] = ts.primary.query.quantileNs(0.50)
	got["system.query_ns_p99"] = ts.primary.query.quantileNs(0.99)
	got["system.batch_s"] = ts.primary.batch.seconds()
	got["system.batch_ns_p50"] = ts.primary.batch.quantileNs(0.50)
	got["system.batch_ns_p99"] = ts.primary.batch.quantileNs(0.99)
	got["system.write_s"] = ts.primary.write.seconds()
	got["baseline.failover_s"] = 0
	if ts.failover != nil {
		got["baseline.failover_s"] = ts.failover.query.seconds()
	}
	traced := float64(tr.spans[run].End-tr.spans[run].Start) / 1e9
	got["trace.overhead_frac"] = traced/untraced - 1
	got["sim.host_ns_per_kcycle"] = untraced * 1e9 / (float64(plain.MakespanCycles) / 1000)

	c := systemCounters(ts.sys.Metrics())
	c.coreLayer(got)
	c.memoryLayers(got)
	c.engineLayers(got, 1)
	got["serve.throttled"] = float64(tot.Throttled)
	got["serve.batches"], got["serve.mean_batch_size"] = 0, 0
	if rep.Batch != nil {
		got["serve.batches"] = float64(rep.Batch.Batches)
		got["serve.mean_batch_size"] = ratio(float64(rep.Batch.BatchedReads), float64(rep.Batch.Batches))
	}
	got["serve.retries"] = float64(tot.Retries)
	got["serve.failover"] = float64(tot.FailedOver)
	got["serve.shed"] = float64(tot.Shed)
	got["serve.breaker_trips"], got["serve.breaker_fast_fails"] = 0, 0
	if rep.Breaker != nil {
		got["serve.breaker_trips"] = float64(rep.Breaker.Trips)
		got["serve.breaker_fast_fails"] = float64(rep.Breaker.FastFails)
	}
	got["faultinject.injected"] = float64(rep.FaultsInjected)
	ep := ts.sys.EpochStats()
	got["epoch.retired"] = float64(ep.Retired)
	got["epoch.reclaimed"] = float64(ep.Reclaimed)
	var splits, merges uint64
	for _, t := range ts.primary.tables {
		if mt, ok := t.(*qei.MutableTable); ok {
			st := mt.MutStats()
			splits += st.Splits
			merges += st.Merges
		}
	}
	got["dstruct.splits"] = float64(splits)
	got["dstruct.merges"] = float64(merges)
	out.notes = append(out.notes, v.note(tot.Shed))
	return out, nil
}

// sameResults reports whether two runs returned the same per-request
// results; errors compare by message, as two runs create distinct
// error values.
func sameResults(a, b []serve.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Found != y.Found || x.Value != y.Value || x.Done != y.Done || (x.Err == nil) != (y.Err == nil) ||
			(x.Err != nil && x.Err.Error() != y.Err.Error()) {
			return false
		}
	}
	return true
}
