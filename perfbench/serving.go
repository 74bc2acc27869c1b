package main

import (
	"errors"
	"fmt"
	"math"
	"time"

	"qei"
	"qei/internal/serve"
)

// serveRequests is the stream length of every serve-* workload's
// measured runs; ladderRequests is the (shorter) stream each rung of
// the capacity ladder serves.
const (
	serveRequests  = 50000
	ladderRequests = 20000
)

// chaosFaults is serve-rw-chaos's fault schedule, after its seed.
const chaosFaults = "flip=0.005,spurious=0.05,shootdown=0.02"

// serveConfig is the serving configuration of one serve-* workload:
// four Zipf(0.99) tenants, each owning a 4096-key B+ tree of 16-byte
// keys, served by the QEI backend on a Core-integrated machine. The
// stream seed (which also seeds the system) and the fault-schedule seed
// derive from the benchmark seed.
func serveConfig(name string, seed int64, requests int) (qei.ServingConfig, error) {
	cfg := qei.ServingConfig{
		Backend:       "qei",
		Scheme:        qei.CoreIntegrated,
		Tenants:       4,
		Requests:      requests,
		KeysPerTenant: 4096,
		KeyLen:        16,
		Kind:          qei.KindBTree,
		TenantSkew:    0.99,
		KeySkew:       0.99,
		MeanGap:       400,
		Seed:          derive(seed, "stream"),
		SLO:           10000,
		GenWorkers:    1,
		KeepResults:   true,
	}
	switch name {
	case "serve-read":
	case "serve-burst":
		cfg.MeanGap = 100
		cfg.BatchAdmit = 16
		cfg.SLO = 20000
	case "serve-rw-chaos":
		cfg.WriteFraction = 0.2
		cfg.DeleteFraction = 0.4
		f, err := qei.ParseFaultSpec(fmt.Sprintf("%d:%s", derive(seed, "faults"), chaosFaults))
		if err != nil {
			return cfg, err
		}
		cfg.Faults = &f
		cfg.Resilient = true
	default:
		return cfg, fmt.Errorf("unknown serving workload %q", name)
	}
	return cfg, nil
}

// deadline is the shed deadline ReplayServing derives for cfg (0 when
// the resilience layer is off).
func deadline(cfg qei.ServingConfig) uint64 {
	if !cfg.Resilient {
		return 0
	}
	if cfg.Deadline > 0 {
		return cfg.Deadline
	}
	return 4 * cfg.SLO
}

// timedBackend decorates a serve.Backend (and its optional batch and
// write paths) with host-time spans: every call on the query path,
// batch path, build path and write path is timed into its call layer.
// Clock and capacity reads (Now, Advance, Capacity, Stats) pass through
// untimed; their cost stays in the serving layer's self time.
type timedBackend struct {
	inner                      serve.Backend
	query, batch, build, write *callLayer
	tables                     []serve.Table
}

func (b *timedBackend) Name() string       { return b.inner.Name() }
func (b *timedBackend) Now() uint64        { return b.inner.Now() }
func (b *timedBackend) Advance(n uint64)   { b.inner.Advance(n) }
func (b *timedBackend) Capacity() int      { return b.inner.Capacity() }
func (b *timedBackend) Stats() serve.Stats { return b.inner.Stats() }

func (b *timedBackend) Build(kind string, keys [][]byte, values []uint64) (serve.Table, error) {
	start := time.Now()
	t, err := b.inner.Build(kind, keys, values)
	b.build.add(time.Since(start))
	b.tables = append(b.tables, t)
	return t, err
}

func (b *timedBackend) Query(t serve.Table, key []byte) (serve.Result, error) {
	start := time.Now()
	r, err := b.inner.Query(t, key)
	b.query.add(time.Since(start))
	return r, err
}

func (b *timedBackend) QueryAsync(t serve.Table, key []byte) (serve.Handle, error) {
	start := time.Now()
	h, err := b.inner.QueryAsync(t, key)
	b.query.add(time.Since(start))
	return h, err
}

func (b *timedBackend) Poll(h serve.Handle) (serve.Result, error) {
	start := time.Now()
	r, err := b.inner.Poll(h)
	b.query.add(time.Since(start))
	return r, err
}

func (b *timedBackend) Wait(h serve.Handle) (serve.Result, error) {
	start := time.Now()
	r, err := b.inner.Wait(h)
	b.query.add(time.Since(start))
	return r, err
}

var errNoPath = errors.New("perfbench: wrapped backend lacks this path")

func (b *timedBackend) QueryBatch(t serve.Table, keys [][]byte) ([]serve.Result, error) {
	bb, ok := b.inner.(serve.BatchBackend)
	if !ok {
		return nil, errNoPath
	}
	start := time.Now()
	rs, err := bb.QueryBatch(t, keys)
	b.batch.add(time.Since(start))
	return rs, err
}

func (b *timedBackend) BuildMutable(kind string, keys [][]byte, values []uint64) (serve.Table, error) {
	m, ok := b.inner.(serve.Mutator)
	if !ok {
		return nil, errNoPath
	}
	start := time.Now()
	t, err := m.BuildMutable(kind, keys, values)
	b.build.add(time.Since(start))
	b.tables = append(b.tables, t)
	return t, err
}

func (b *timedBackend) Insert(t serve.Table, key []byte, value uint64) error {
	m, ok := b.inner.(serve.Mutator)
	if !ok {
		return errNoPath
	}
	start := time.Now()
	err := m.Insert(t, key, value)
	b.write.add(time.Since(start))
	return err
}

func (b *timedBackend) Delete(t serve.Table, key []byte) (bool, error) {
	m, ok := b.inner.(serve.Mutator)
	if !ok {
		return false, errNoPath
	}
	start := time.Now()
	found, err := m.Delete(t, key)
	b.write.add(time.Since(start))
	return found, err
}

// tracedServing is the outcome of one traced serving run.
type tracedServing struct {
	rep      *serve.Report
	sys      *qei.System
	primary  *timedBackend
	failover *timedBackend
}

// serveTraced serves reqs exactly as qei.ReplayServing does — same
// system options, backends, serve.Config and report stamping — but with
// both backends wrapped in timedBackend and the system's metrics
// registry attached, so the machine's counters can be read afterwards.
// wrap, when non-nil, interposes on the primary backend below the
// timing layer (tests plant faults with it).
func serveTraced(cfg qei.ServingConfig, reqs []serve.Request, tr *tracer, parent int, wrap func(serve.Backend) serve.Backend) (*tracedServing, error) {
	opts := []qei.Option{qei.WithSeed(cfg.Seed), qei.WithMetrics()}
	if cfg.Faults != nil {
		opts = append(opts, qei.WithFaultInjection(*cfg.Faults))
	}
	if cfg.QueryBudget > 0 {
		opts = append(opts, qei.WithQueryCycleBudget(cfg.QueryBudget))
	}
	sys := qei.NewSystem(cfg.Scheme, opts...)
	inner, err := qei.NewServingBackend(cfg.Backend, sys)
	if err != nil {
		return nil, err
	}
	if wrap != nil {
		inner = wrap(inner)
	}
	primary := &timedBackend{
		inner: inner,
		query: tr.layer("system.query", parent),
		batch: tr.layer("system.batch", parent),
		build: tr.layer("system.build", parent),
		write: tr.layer("system.write", parent),
	}
	out := &tracedServing{sys: sys, primary: primary}
	scfg := serve.Config{
		Gen:            cfg.GenConfig(),
		SlotsPerTenant: cfg.SlotsPerTenant,
		SLO:            cfg.SLO,
		KeepResults:    cfg.KeepResults,
		WriteCost:      cfg.WriteCost,
		BatchAdmit:     cfg.BatchAdmit,
	}
	if cfg.Resilient {
		res := &serve.Resilience{
			Deadline:     deadline(cfg),
			MaxRetries:   cfg.MaxRetries,
			RetryBackoff: cfg.RetryBackoff,
		}
		if cfg.Breaker != nil {
			res.Breaker = *cfg.Breaker
		}
		if cfg.Backend != "baseline" {
			fo, err := qei.NewServingBackend("baseline", sys)
			if err != nil {
				return nil, err
			}
			fl := tr.layer("baseline.failover", parent)
			out.failover = &timedBackend{inner: fo, query: fl, batch: fl, build: fl, write: fl}
			res.Failover = out.failover
		}
		scfg.Resilience = res
	}
	rep, err := serve.Run(primary, scfg, reqs)
	if err != nil {
		return nil, err
	}
	rep.FaultsInjected = sys.FaultsInjected()
	rep.EpochViolations = sys.EpochViolations()
	if rep.Batch != nil {
		c := systemCounters(sys.Metrics())
		rep.Batch.Levels = c["qei/batch/levels"]
		rep.Batch.TranslationsSaved = c["qei/batch/translations_saved"]
		rep.Batch.CoalescedProbes = c["qei/batch/coalesced_probes"]
		rep.Batch.Deferred = c["qei/batch/deferred"]
	}
	out.rep = rep
	return out, nil
}

// readLatencies returns every read's simulated latency from its
// scheduled arrival, shed reads included at their observed wait.
func readLatencies(reqs []serve.Request, results []serve.Result) []float64 {
	lat := make([]float64, 0, len(reqs))
	for i, r := range reqs {
		if r.Op != serve.OpGet {
			continue
		}
		d := results[i].Done
		if d < r.At {
			d = r.At
		}
		lat = append(lat, float64(d-r.At))
	}
	return lat
}

// ladderGaps is the fixed capacity ladder of mean arrival gaps: 800
// cycles down to 50, each rung 15% shorter than the last.
func ladderGaps() []uint64 {
	var gaps []uint64
	for g := 800.0; g >= 49.5; g *= 0.85 {
		gaps = append(gaps, uint64(math.Round(g)))
	}
	return gaps
}

// capacity serves a ladderRequests-long stream at every rung of the
// ladder and returns the highest rate, in requests per 1000 cycles, at
// which the read p99 meets the SLO and nothing is shed (0 when no rung
// passes). Every rung is tried: batched latency is not monotone in
// load, so a failing rung does not end the ladder.
func capacity(base qei.ServingConfig) (float64, error) {
	best := 0.0
	for _, gap := range ladderGaps() {
		cfg := base
		cfg.Requests = ladderRequests
		cfg.MeanGap = gap
		reqs, err := serve.GenerateParallel(cfg.GenConfig(), cfg.GenWorkers)
		if err != nil {
			return 0, err
		}
		rep, err := qei.ReplayServing(cfg, cfg.GenConfig(), reqs)
		if err != nil {
			return 0, fmt.Errorf("capacity rung %d: %w", gap, err)
		}
		p99 := quantile(readLatencies(reqs, rep.Results), 0.99)
		if p99 <= float64(cfg.SLO) && rep.Total.Shed == 0 {
			best = max(best, 1000/float64(gap))
		}
	}
	return best, nil
}
