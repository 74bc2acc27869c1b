package qei

import (
	"context"
	"fmt"
	"hash/fnv"

	"qei/internal/epoch"
	"qei/internal/serve"
)

// This file holds the "streaming" experiment: one tenant's mutable
// table under a seeded, growing read-write stream, served through the
// serving path with up to eight lookups in flight across the
// mutations, exercising the epoch-based reclamation protocol end to
// end. The server checks every answer against its host model; the
// experiment adds the table's mutation counters and the epoch GC's
// reclamation accounting. Live runs and trace replays are
// byte-identical, as are serial and parallel experiment executions.

// streamingConfig is the experiment's serving configuration for one
// structure kind: a single tenant under a 30%-write Zipf(0.99) stream
// whose upserts keep growing the key set, arriving fast enough that
// the eight-slot lookup window fills between writes.
func streamingConfig(s Scale, kind StructKind) ServingConfig {
	cfg := DefaultServingConfig()
	cfg.Kind = kind
	cfg.Tenants = 1
	cfg.Requests = 420
	cfg.KeysPerTenant = 96
	cfg.MeanGap = 40
	cfg.SlotsPerTenant = 8
	cfg.WriteFraction = 0.3
	cfg.DeleteFraction = 0.4
	cfg.Grow = true
	cfg.KeepResults = true
	if s == FullScale {
		cfg.KeysPerTenant = 512
		cfg.Requests = 4000
	}
	return cfg
}

// streamingRun is one streaming run's outcome: the serving report plus
// the table's mutation counters and the epoch GC's accounting.
type streamingRun struct {
	rep   *serve.Report
	mut   MutStats
	epoch epoch.Stats
}

// runStreaming serves reqs under cfg with the cuckoo rehash ceiling
// overridden by maxLoad (0 keeps the default).
func runStreaming(cfg ServingConfig, gen serve.GenConfig, reqs []serve.Request, maxLoad float64) (*streamingRun, error) {
	rep, mut, err := replayServing(cfg, gen, reqs, maxLoad)
	if err != nil {
		return nil, err
	}
	run := &streamingRun{rep: rep, epoch: mut.sys.EpochStats()}
	if len(mut.mutables) > 0 {
		run.mut = mut.mutables[0].MutStats()
	}
	return run, nil
}

// resultsDigest folds every request's result, completion cycle
// included, into one FNV-1a value: two runs are behaviorally identical
// iff their digests match.
func resultsDigest(results []serve.Result) uint64 {
	h := fnv.New64a()
	for _, r := range results {
		fmt.Fprintln(h, r.Found, r.Value, r.Done, r.Err != nil)
	}
	return h.Sum64()
}

// streamingJob is one structure kind's slot in the streaming
// experiment, with the per-kind rehash ceiling that guarantees the
// cuckoo row exercises an online rehash at experiment scale.
type streamingJob struct {
	kind    StructKind
	maxLoad float64
}

// StreamingConsistency is the "streaming" experiment: the same seeded
// read-write stream driven against each mutable structure kind, with
// lookups pinned in flight across mutations. The row set proves the
// consistency story: zero host-model mismatches, zero read-after-retire
// violations, and the structural-maintenance paths (online rehash,
// B+-tree splits and merges) actually exercised.
func StreamingConsistency(s Scale, opts ...ExpOption) (TableData, error) {
	t := TableData{
		Title: "Streaming — epoch-consistent read-write streams (30% writes)",
		Headers: []string{"kind", "ops", "puts", "dels", "hits", "mismatch",
			"rehash", "split", "merge", "rebuild", "retired", "reclaimed",
			"reused", "viol", "p50", "p99", "digest"},
	}
	cuckooLoad := 0.10
	if s == FullScale {
		cuckooLoad = 0.15
	}
	jobs := []streamingJob{
		{KindCuckoo, cuckooLoad},
		{KindSkipList, 0},
		{KindBST, 0},
		{KindBTree, 0},
	}
	rows, err := expRows(expConfigFor(opts), jobs,
		func(_ context.Context, _ int, j streamingJob) ([][]string, error) {
			cfg := streamingConfig(s, j.kind)
			gen := cfg.GenConfig()
			reqs, err := serve.Generate(gen)
			if err != nil {
				return nil, err
			}
			run, err := runStreaming(cfg, gen, reqs, j.maxLoad)
			if err != nil {
				return nil, err
			}
			tot := run.rep.Total
			if tot.Mismatches != 0 {
				return nil, fmt.Errorf("qei: streaming %s: %d answers disagreed with the host model",
					j.kind, tot.Mismatches)
			}
			if run.epoch.Violations != 0 {
				return nil, fmt.Errorf("qei: streaming %s: %d read-after-retire violations",
					j.kind, run.epoch.Violations)
			}
			if j.kind == KindCuckoo && run.mut.Rehashes == 0 {
				return nil, fmt.Errorf("qei: streaming cuckoo run exercised no online rehash")
			}
			if j.kind == KindBTree && run.mut.Splits == 0 {
				return nil, fmt.Errorf("qei: streaming btree run exercised no node split")
			}
			var puts, dels int
			for _, r := range reqs {
				switch r.Op {
				case serve.OpPut:
					puts++
				case serve.OpDel:
					dels++
				}
			}
			m, e := run.mut, run.epoch
			return [][]string{{j.kind.String(), f("%d", len(reqs)), f("%d", puts),
				f("%d", dels), f("%d", tot.Found), f("%d", tot.Mismatches),
				f("%d", m.Rehashes), f("%d", m.Splits), f("%d", m.Merges),
				f("%d", m.Rebuilds), f("%d", e.Retired), f("%d", e.Reclaimed),
				f("%d", e.Reused), f("%d", e.Violations),
				f("%d", tot.P50), f("%d", tot.P99), f("%016x", resultsDigest(run.rep.Results))}}, nil
		})
	t.Rows = rows
	return t, err
}
