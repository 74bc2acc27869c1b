// Package workload implements the five data-center benchmarks of
// Sec. VI-B — DPDK L3-FIB (cuckoo hash), JVM garbage-collection object
// tree (BST), RocksDB memtable (skip list), Snort literal matching
// (Aho-Corasick trie), FLANN locality-sensitive hashing (hash-table
// group) — plus the tuple-space-search workload of Sec. VII-B, and a
// runner that executes each of them in three configurations: pure
// software on the OoO core, QEI-accelerated with blocking QUERY_B, and
// QEI-accelerated with non-blocking QUERY_NB batches.
//
// Each benchmark builds its data structures in a fresh simulated machine
// (deterministic layouts from fixed seeds), then plays a query stream.
// Requests carry a calibrated amount of non-ROI work (parsing, memcpy,
// bookkeeping) so that the query share of total time lands in the
// 23–44% band the paper profiles in Fig. 1.
package workload

import (
	"fmt"

	"qei/internal/baseline"
	"qei/internal/cfa"
	"qei/internal/cpu"
	"qei/internal/isa"
	"qei/internal/machine"
	"qei/internal/mem"
	"qei/internal/metrics"
	"qei/internal/qei"
	"qei/internal/scheme"
	"qei/internal/trace"
)

// Probe is one data-structure lookup within a request.
type Probe struct {
	Header mem.VAddr
	Key    mem.VAddr
	KeyLen uint32 // non-zero overrides the header's key length (trie)

	WantFound bool
	WantValue uint64
}

// Request is one application-level unit of work (a packet, a GC mark
// step, a DB get, a scanned payload, a similarity query): some non-ROI
// work plus one or more probes.
type Request struct {
	Probes []Probe
}

// Plan is a fully built benchmark instance inside one machine.
type Plan struct {
	Name     string
	Requests []Request
	// WarmupRequests is a disjoint stream with the same distribution,
	// played by the warmup pass so the measured stream does not reuse
	// exactly the lines warmup pulled into the private caches.
	WarmupRequests []Request
	// Batch is the QUERY_B issue batch used by the accelerated ROI
	// rewrite (Sec. IV-A: "QUERY_B ... can be used in small batches,
	// determined by the resource limitations of the accelerator and the
	// core pipeline, to maximize the parallelism"). Zero means the QST
	// depth (10).
	Batch int
	// NonROIOps is the per-request op count of surrounding work.
	NonROIOps int
	// NonROILoadEvery makes every Nth non-ROI op a load into Scratch
	// (cache-resident application state); 0 disables loads.
	NonROILoadEvery int
	Scratch         mem.VAddr
	scratchSize     uint64
	// BaselineTrace renders the software routine for one probe through
	// the run's baseline.Querier arena. The returned trace shares the
	// arena's storage and is only valid until the next probe — callers
	// append (copy) it immediately.
	BaselineTrace func(m *machine.Machine, q *baseline.Querier, p Probe) (isa.Trace, foundValue, error)
}

// foundValue is a probe outcome for verification.
type foundValue struct {
	Found bool
	Value uint64
}

// Benchmark builds a Plan into a machine.
type Benchmark interface {
	Name() string
	Build(m *machine.Machine) (*Plan, error)
}

// Mode selects which part of each request runs.
type Mode int

const (
	// Full runs non-ROI work and queries (end-to-end, Fig. 9).
	Full Mode = iota
	// ROIOnly runs just the queries (lookup speedup, Fig. 7).
	ROIOnly
	// NonROIOnly runs just the surrounding work (Fig. 1 calibration).
	NonROIOnly
)

// Run captures one execution's metrics.
type Run struct {
	Name    string
	Mode    Mode
	Scheme  string
	Queries int
	// Cycles is the makespan: last core retirement or last accelerator
	// completion, whichever is later.
	Cycles uint64
	Core   cpu.Stats
	Accel  *qei.Stats
	// Memory-system activity (for the power model).
	L1Accesses, L2Accesses, LLCAccesses, DRAMAccesses uint64
	NoCBytes                                          uint64
	TLBLookups, PageWalks                             uint64
	// Mismatches counts probes whose result disagreed with the expected
	// value — must be zero in a correct run.
	Mismatches int
	// PeakLinkUtil / MeanUtil are the mesh utilization of the measured
	// window, filled when the run used WithNoCWindow.
	PeakLinkUtil float64
	MeanUtil     float64
	// Metrics is the registry snapshot taken at the end of the run when
	// WithMetrics attached one. It covers the whole run including any
	// warmup pass (component counters are cumulative).
	Metrics metrics.Snapshot
}

// QueriesPerKilocycle is the throughput metric used by Fig. 9/10.
func (r Run) QueriesPerKilocycle() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Queries) * 1000 / float64(r.Cycles)
}

// RunOption configures a runner.
type RunOption func(*runCfg)

type runCfg struct {
	warmup   bool
	batch    int
	nocReset bool
	reg      *metrics.Registry
	tr       *trace.Tracer
	mach     *machine.Config
}

// newMachine builds the run's machine: the configured topology
// (WithMachine) or the Tab. II default. machine.New deep-copies the
// Config, so one Config value can feed many concurrent runs.
func (c *runCfg) newMachine() *machine.Machine {
	if c.mach != nil {
		return machine.New(*c.mach)
	}
	return machine.NewDefault()
}

// attach wires the run's machine (and, for accelerated runs, the
// accelerator) into the configured observability sinks; both may be nil.
func (c *runCfg) attach(m *machine.Machine, accel *qei.Accelerator) {
	if accel != nil {
		accel.RegisterMetrics(c.reg)
		accel.SetTracer(c.tr)
		return
	}
	m.AttachObservability(c.reg, c.tr)
}

// WithWarmup plays the request stream once before the measured pass, so
// caches and TLBs reach steady state — the regime the paper evaluates
// ("there are few TLB misses in our tests", Sec. VII-A). Reported
// cycles/stats cover only the measured pass.
func WithWarmup() RunOption {
	return func(c *runCfg) { c.warmup = true }
}

// WithBatch overrides the QUERY_NB issue batch size.
func WithBatch(n int) RunOption {
	return func(c *runCfg) { c.batch = n }
}

// WithNoCWindow clears accumulated NoC traffic at the start of the
// measured pass so Run.PeakLinkUtil / Run.MeanUtil reflect the measured
// window only (implies a warmup pass).
func WithNoCWindow() RunOption {
	return func(c *runCfg) { c.warmup = true; c.nocReset = true }
}

// WithMetrics attaches a metrics registry: every component of the run's
// machine (and the accelerator, for QEI runs) registers its counters
// into reg, and Run.Metrics carries reg's final snapshot.
func WithMetrics(reg *metrics.Registry) RunOption {
	return func(c *runCfg) { c.reg = reg }
}

// WithTrace attaches the unified event tracer: all components emit
// cycle-stamped events into tr during the run.
func WithTrace(tr *trace.Tracer) RunOption {
	return func(c *runCfg) { c.tr = tr }
}

// WithMachine runs the workload on the given chip topology instead of
// the Tab. II default — the design-space-exploration knob. The Config
// is captured by value and deep-copied by machine.New, so sweep points
// sharing a base Config never alias.
func WithMachine(cfg machine.Config) RunOption {
	return func(c *runCfg) { c.mach = &cfg }
}

// memSnapshot captures machine-wide memory-system counters for delta
// measurement around a warmup pass.
type memSnapshot struct {
	l1, l2, llc, dram, noc, tlbs, walks uint64
}

func snapshotMemory(m *machine.Machine) memSnapshot {
	var s memSnapshot
	for core := 0; core < m.Cfg.Cores; core++ {
		h, mi, _, _ := m.Hier.L1D[core].Stats()
		s.l1 += h + mi
		h2, m2, _, _ := m.Hier.L2[core].Stats()
		s.l2 += h2 + m2
		th, tm, _ := m.TLB[core].L1.Stats()
		s.tlbs += th + tm
		t2h, t2m, _ := m.TLB[core].L2.Stats()
		s.tlbs += t2h + t2m
		w, _, _ := m.TLB[core].Walker.Stats()
		s.walks += w
	}
	lh, lm := m.Hier.LLC().Stats()
	s.llc = lh + lm
	s.dram = m.Hier.DRAM().Accesses()
	s.noc = m.Hier.Mesh().TotalBytes()
	return s
}

func applyMemoryDelta(r *Run, before, after memSnapshot) {
	r.L1Accesses = after.l1 - before.l1
	r.L2Accesses = after.l2 - before.l2
	r.LLCAccesses = after.llc - before.llc
	r.DRAMAccesses = after.dram - before.dram
	r.NoCBytes = after.noc - before.noc
	r.TLBLookups = after.tlbs - before.tlbs
	r.PageWalks = after.walks - before.walks
}

// feedNonROI streams the request's surrounding work straight into core,
// one op at a time, without materialising a trace: parsing, copying,
// and bookkeeping modelled as short dependent chains seeded by
// cache-resident loads, the IPC≈1.5 shape of real protocol-processing
// code. Destination registers come from b's allocator, so numbering
// continues where the ops already built into b left it. seed, when
// non-zero, makes the work depend on a query result register (the
// accelerated rewrite consumes results, List 2).
//
// The op pattern is fixed by position i within the request: a load into
// Scratch every NonROILoadEvery ops, else a chain-extending ALU op when
// i%3 == 0, a well-predicted branch when i%7 == 6, and independent
// scalar work otherwise. Running counters stand in for the modulos.
func feedNonROI(core *cpu.Core, b *isa.Builder, plan *Plan, reqIdx int, seed isa.Reg) {
	if plan.NonROIOps <= 0 {
		return
	}
	loadEvery := plan.NonROILoadEvery
	if plan.Scratch == 0 {
		loadEvery = 0
	}
	// off is the scratch offset of the next load; each load advances it
	// by loadEvery 8-byte words, wrapping within the scratch area.
	var off, step uint64
	if loadEvery > 0 {
		off = uint64(reqIdx*64) % plan.scratchSize
		step = uint64(loadEvery*8) % plan.scratchSize
	}
	chain := seed
	var op isa.Op
	sinceLoad, mod3, mod7 := 0, 0, 0 // i%loadEvery, i%3, i%7
	for i := 0; i < plan.NonROIOps; i++ {
		switch {
		case loadEvery > 0 && sinceLoad == 0:
			chain = b.Temp()
			op = isa.Op{Kind: isa.Load, Dst: chain, Addr: plan.Scratch + mem.VAddr(off&^7), Size: 8}
			if off += step; off >= plan.scratchSize {
				off -= plan.scratchSize
			}
		case mod3 == 0:
			dst := b.Temp()
			op = isa.Op{Kind: isa.ALU, Dst: dst, Src1: chain} // extends the running chain
			chain = dst
		case mod7 == 6:
			op = isa.Op{Kind: isa.Branch, Src1: chain} // well-predicted control flow
		default:
			op = isa.Op{Kind: isa.ALU, Dst: b.Temp()} // independent scalar work
		}
		core.Feed(&op)
		if sinceLoad++; sinceLoad == loadEvery {
			sinceLoad = 0
		}
		if mod3++; mod3 == 3 {
			mod3 = 0
		}
		if mod7++; mod7 == 7 {
			mod7 = 0
		}
	}
	// A data-dependent branch per request mispredicts occasionally.
	op = isa.Op{Kind: isa.Branch, Src1: chain, Mispredict: reqIdx%24 == 0}
	core.Feed(&op)
}

// warmupStream picks the warmup request stream for a plan.
func warmupStream(plan *Plan) []Request {
	if len(plan.WarmupRequests) > 0 {
		return plan.WarmupRequests
	}
	return plan.Requests
}

// RunBaseline executes bench in pure software on core 0 of a fresh
// machine.
func RunBaseline(bench Benchmark, mode Mode, opts ...RunOption) (Run, error) {
	var cfg runCfg
	for _, o := range opts {
		o(&cfg)
	}
	m := cfg.newMachine()
	cfg.attach(m, nil)
	buildStart := m.AS.Brk()
	plan, err := bench.Build(m)
	if err != nil {
		return Run{}, err
	}
	buildEnd := m.AS.Brk()
	core := m.NewCore(0, nil)
	run := Run{Name: plan.Name, Mode: mode, Scheme: "software"}

	// One builder and one querier arena serve every request: the core
	// consumes each trace synchronously in Run, so the builder's storage
	// is reusable immediately after (Reset keeps register numbering
	// byte-identical to a fresh builder). The probes' traces are
	// collected first and fed after the request's filler, which streams
	// into the core with registers numbered from the reset builder.
	b := isa.NewBuilder()
	q := baseline.NewQuerier()
	pass := func(reqs []Request, count bool) error {
		for i, req := range reqs {
			b.Reset()
			if mode != NonROIOnly {
				for _, p := range req.Probes {
					tr, want, err := plan.BaselineTrace(m, q, p)
					if err != nil {
						return err
					}
					if count {
						if want.Found != p.WantFound || (want.Found && want.Value != p.WantValue) {
							run.Mismatches++
						}
						run.Queries++
					}
					b.Append(tr)
				}
			}
			if mode != ROIOnly {
				feedNonROI(core, b, plan, i, 0)
			}
			core.Run(b.Ops())
			if core.Err() != nil {
				return core.Err()
			}
		}
		return nil
	}

	var startCycle uint64
	var startStats cpu.Stats
	var startMem memSnapshot
	if cfg.warmup {
		m.WarmLLC(buildStart, buildEnd)
		if err := pass(warmupStream(plan), false); err != nil {
			return run, err
		}
		startCycle = core.Now()
		startStats = core.Stats()
		startMem = snapshotMemory(m)
	}
	if err := pass(plan.Requests, true); err != nil {
		return run, err
	}
	run.Cycles = core.Now() - startCycle
	run.Core = core.Stats().Sub(startStats)
	m.Hier.Mesh().ObserveWindow(core.Now())
	applyMemoryDelta(&run, startMem, snapshotMemory(m))
	run.Metrics = cfg.reg.Snapshot()
	return run, nil
}

// RunQEI executes bench with QEI under the given integration scheme
// using blocking QUERY_B instructions.
func RunQEI(bench Benchmark, kind scheme.Kind, mode Mode, opts ...RunOption) (Run, error) {
	return RunQEIWithParams(bench, scheme.ForKind(kind), mode, opts...)
}

// RunQEIWithParams is RunQEI with an explicit (possibly modified) scheme
// parameter set — used by the Fig. 8 latency sweep and the ablations.
func RunQEIWithParams(bench Benchmark, params scheme.Params, mode Mode, opts ...RunOption) (Run, error) {
	var cfg runCfg
	for _, o := range opts {
		o(&cfg)
	}
	m := cfg.newMachine()
	cfg.attach(m, nil)
	buildStart := m.AS.Brk()
	plan, err := bench.Build(m)
	if err != nil {
		return Run{}, err
	}
	buildEnd := m.AS.Brk()
	accel := qei.New(m, params, cfa.DefaultRegistry(), 0)
	cfg.attach(m, accel)
	core := m.NewCore(0, accel)
	run := Run{Name: plan.Name, Mode: mode, Scheme: params.Kind.String()}
	tag := uint64(0)
	type expect struct {
		tag uint64
		p   Probe
	}
	var pending []expect

	// The accelerated ROI issues QUERY_B in small batches and then
	// consumes the batch's results in the per-request work — the List 2
	// usage pattern that fills (but does not overflow) the QST.
	batch := plan.Batch
	if cfg.batch > 0 {
		batch = cfg.batch
	}
	if batch <= 0 {
		batch = params.QSTEntriesPerInstance
		if batch > 10 {
			batch = 10 // software batches to the common QST depth
		}
	}
	prevFound := true
	// One builder and one result-register scratch serve every batch; the
	// core consumes each trace synchronously, so both are reusable as
	// soon as Run returns.
	b := isa.NewBuilder()
	var resultScratch []isa.Reg
	pass := func(reqs []Request, count bool) error {
		for start := 0; start < len(reqs); start += batch {
			end := start + batch
			if end > len(reqs) {
				end = len(reqs)
			}
			b.Reset()
			if cap(resultScratch) < end-start {
				resultScratch = make([]isa.Reg, end-start)
			}
			resultReg := resultScratch[:end-start]
			clear(resultReg)
			if mode != NonROIOnly {
				for ri := start; ri < end; ri++ {
					for _, p := range reqs[ri].Probes {
						// Per-query software shell of the rewritten ROI:
						// key pointer setup before the instruction,
						// result check after (List 2). This is what keeps
						// the ROB's in-flight query count near the QST
						// depth — the "bounded by the core" effect of
						// Sec. VII-A.
						b.ALUN(6, 0)
						r := b.QueryB(isa.QueryDesc{
							HeaderAddr: p.Header,
							KeyAddr:    p.Key,
							KeyLen:     p.KeyLen,
							Tag:        tag,
						})
						check := b.ALU(r, 0)
						// Result-dependent check: the predictor learns the
						// dominant outcome and mispredicts only when a
						// probe's found-ness flips (a miss after a run of
						// hits, or vice versa).
						b.Branch(check, p.WantFound != prevFound)
						prevFound = p.WantFound
						b.ALUN(4, 0) // loop bookkeeping
						resultReg[ri-start] = r
						if count {
							pending = append(pending, expect{tag: tag, p: p})
							run.Queries++
						}
						tag++
					}
				}
			}
			// The batch's ROI ops run first; each request's filler then
			// streams in behind them, consuming its query's result.
			core.Run(b.Ops())
			if mode != ROIOnly {
				for ri := start; ri < end; ri++ {
					feedNonROI(core, b, plan, ri, resultReg[ri-start])
				}
			}
			if core.Err() != nil {
				return core.Err()
			}
		}
		return nil
	}

	var startCycle uint64
	var startStats cpu.Stats
	var startAccel qei.Stats
	var startMem memSnapshot
	if cfg.warmup {
		m.WarmLLC(buildStart, buildEnd)
		if err := pass(warmupStream(plan), false); err != nil {
			return run, err
		}
		startCycle = core.Now()
		if fin := accel.Stats().LastFinish; fin > startCycle {
			startCycle = fin
		}
		startStats = core.Stats()
		startAccel = accel.Stats()
		if cfg.nocReset {
			m.Hier.Mesh().ResetTraffic()
		}
		startMem = snapshotMemory(m)
	}
	if err := pass(plan.Requests, true); err != nil {
		return run, err
	}
	for _, e := range pending {
		r, ok := accel.Result(e.tag)
		if !ok || r.Fault != nil || r.Found != e.p.WantFound || (r.Found && r.Value != e.p.WantValue) {
			run.Mismatches++
		}
	}
	endCycle := core.Now()
	as := accel.Stats()
	if as.LastFinish > endCycle {
		endCycle = as.LastFinish
	}
	run.Cycles = endCycle - startCycle
	asd := as.Sub(startAccel)
	run.Core = core.Stats().Sub(startStats)
	run.Accel = &asd
	if cfg.nocReset {
		m.Hier.Mesh().ObserveWindow(run.Cycles)
		run.PeakLinkUtil, _ = m.Hier.Mesh().LinkUtilization()
		run.MeanUtil = m.Hier.Mesh().MeanUtilization()
	} else {
		m.Hier.Mesh().ObserveWindow(endCycle)
	}
	applyMemoryDelta(&run, startMem, snapshotMemory(m))
	run.Metrics = cfg.reg.Snapshot()
	return run, nil
}

// RunQEINonBlocking executes bench with QUERY_NB in batches: each batch
// issues batch requests' probes non-blocking, then polls their result
// lines (the SNAPSHOT_READ loop of List 2).
func RunQEINonBlocking(bench Benchmark, kind scheme.Kind, batch int, opts ...RunOption) (Run, error) {
	var cfg runCfg
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.batch > 0 {
		batch = cfg.batch
	}
	if batch <= 0 {
		batch = 32
	}
	m := cfg.newMachine()
	cfg.attach(m, nil)
	buildStart := m.AS.Brk()
	plan, err := bench.Build(m)
	if err != nil {
		return Run{}, err
	}
	buildEnd := m.AS.Brk()
	accel := qei.New(m, scheme.ForKind(kind), cfa.DefaultRegistry(), 0)
	cfg.attach(m, accel)
	core := m.NewCore(0, accel)
	run := Run{Name: plan.Name, Mode: Full, Scheme: kind.String() + "+NB"}

	// Result area: one line per in-flight probe slot.
	maxProbes := 0
	for _, req := range plan.Requests {
		if len(req.Probes) > maxProbes {
			maxProbes = len(req.Probes)
		}
	}
	slots := batch * maxProbes
	resultArea := m.AS.AllocLines(uint64(slots) * mem.LineSize)

	tag := uint64(0)
	type expect struct {
		tag uint64
		p   Probe
	}
	var pending []expect

	// One builder serves every batch (the core consumes each trace
	// synchronously in Run). Each request's filler streams into the core
	// after the QUERY_NB ops built so far; fed counts the builder's ops
	// the core has already consumed.
	b := isa.NewBuilder()
	flushBatch := func(batchReqs []Request, firstIdx int, count bool) error {
		b.Reset()
		slot, fed := 0, 0
		for ri, req := range batchReqs {
			core.Run(b.Ops()[fed:])
			fed = b.Len()
			feedNonROI(core, b, plan, firstIdx+ri, 0)
			for _, p := range req.Probes {
				resAddr := resultArea + mem.VAddr(slot*mem.LineSize)
				b.QueryNB(isa.QueryDesc{
					HeaderAddr: p.Header,
					KeyAddr:    p.Key,
					KeyLen:     p.KeyLen,
					ResultAddr: resAddr,
					Tag:        tag,
				})
				if count {
					pending = append(pending, expect{tag: tag, p: p})
					run.Queries++
				}
				tag++
				slot++
			}
		}
		// Polling loop: SNAPSHOT_READ-style wide loads over the result
		// lines until completion flags are set (List 2). Each poll pass
		// reads every 8th line (a 512-bit gather per 8 slots).
		for pass := 0; pass < 2; pass++ {
			for s := 0; s < slot; s += 8 {
				r := b.Load(resultArea+mem.VAddr(s*mem.LineSize), 64, 0)
				b.Branch(r, pass == 1 && s+8 >= slot)
			}
		}
		core.Run(b.Ops()[fed:])
		return core.Err()
	}

	pass := func(reqs []Request, count bool) error {
		for start := 0; start < len(reqs); start += batch {
			end := start + batch
			if end > len(reqs) {
				end = len(reqs)
			}
			if err := flushBatch(reqs[start:end], start, count); err != nil {
				return err
			}
		}
		return nil
	}

	var startCycle uint64
	var startStats cpu.Stats
	var startAccel qei.Stats
	var startMem memSnapshot
	if cfg.warmup {
		m.WarmLLC(buildStart, buildEnd)
		if err := pass(warmupStream(plan), false); err != nil {
			return run, err
		}
		startCycle = core.Now()
		if fin := accel.Stats().LastFinish; fin > startCycle {
			startCycle = fin
		}
		startStats = core.Stats()
		startAccel = accel.Stats()
		startMem = snapshotMemory(m)
	}
	if err := pass(plan.Requests, true); err != nil {
		return run, err
	}
	var lastAccelDone uint64
	for _, e := range pending {
		r, ok := accel.Result(e.tag)
		if !ok || r.Fault != nil || r.Found != e.p.WantFound || (r.Found && r.Value != e.p.WantValue) {
			run.Mismatches++
		}
		if ok && r.Done > lastAccelDone {
			lastAccelDone = r.Done
		}
	}
	endCycle := core.Now()
	if lastAccelDone > endCycle {
		endCycle = lastAccelDone
	}
	run.Cycles = endCycle - startCycle
	as := accel.Stats()
	asd := as.Sub(startAccel)
	run.Core = core.Stats().Sub(startStats)
	run.Accel = &asd
	m.Hier.Mesh().ObserveWindow(endCycle)
	applyMemoryDelta(&run, startMem, snapshotMemory(m))
	run.Metrics = cfg.reg.Snapshot()
	return run, nil
}

// ROIShare computes Fig. 1's metric: the fraction of software time spent
// in query operations, from a full run and a non-ROI-only run of the
// same benchmark.
func ROIShare(bench Benchmark) (float64, error) {
	full, err := RunBaseline(bench, Full)
	if err != nil {
		return 0, err
	}
	nonROI, err := RunBaseline(bench, NonROIOnly)
	if err != nil {
		return 0, err
	}
	if full.Cycles == 0 {
		return 0, fmt.Errorf("workload: empty run")
	}
	roi := float64(full.Cycles-nonROI.Cycles) / float64(full.Cycles)
	if roi < 0 {
		roi = 0
	}
	return roi, nil
}

// RunQEIUtilization measures the mesh utilization attributable to one
// accelerator under a dense query stream (ROI only, no idle gaps) — the
// Sec. V hotspot analysis: "each QEI accelerator can saturate as much as
// 8% of the mesh NoC bandwidth".
func RunQEIUtilization(bench Benchmark, kind scheme.Kind) (Run, error) {
	return RunQEI(bench, kind, ROIOnly, WithNoCWindow())
}
