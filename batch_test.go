package qei

// Tests for the level-wise batch engine: plan resolution, parity with
// the per-query path (clean, under chaos, and across mutations),
// determinism, the foreign-stall error contract of the windowed path,
// and batched admission in the serving frontend.

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	iqei "qei/internal/qei"
	"qei/internal/serve"
)

func TestPlanBatch(t *testing.T) {
	cases := []struct {
		kind     StructKind
		n        int
		mode     BatchMode
		grouping string
	}{
		{KindBTree, 64, BatchLevelWise, "levels"},
		{KindBST, 16, BatchLevelWise, "levels"},
		{KindSkipList, 4, BatchLevelWise, "levels"},
		{KindCuckoo, 64, BatchLevelWise, "bucket phases"},
		{KindHashTable, 8, BatchLevelWise, "bucket phases"},
		{KindLinkedList, 32, BatchLevelWise, "chunked scan"},
		{KindTrie, 64, BatchWindowed, "windowed"},
		// Tiny batches have nothing to amortize.
		{KindBTree, 3, BatchWindowed, "windowed"},
		{KindCuckoo, 1, BatchWindowed, "windowed"},
	}
	for _, c := range cases {
		p := PlanBatch(c.kind, c.n)
		if p.Mode != c.mode || p.Grouping != c.grouping {
			t.Errorf("PlanBatch(%s, %d) = %s/%q, want %s/%q",
				c.kind, c.n, p.Mode, p.Grouping, c.mode, c.grouping)
		}
		if p.Mode == BatchAuto {
			t.Errorf("PlanBatch(%s, %d) left mode unresolved", c.kind, c.n)
		}
	}
}

// batchTestProbes draws a shuffled probe set over keys with duplicates
// and absent keys mixed in.
func batchTestProbes(keys, absent [][]byte, n int, seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	probes := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		switch {
		case i > 0 && rng.Intn(6) == 0:
			probes = append(probes, probes[rng.Intn(len(probes))])
		case rng.Intn(6) == 0:
			probes = append(probes, absent[rng.Intn(len(absent))])
		default:
			probes = append(probes, keys[rng.Intn(len(keys))])
		}
	}
	return probes
}

// TestQueryBatchLevelWiseMatchesPerQuery pins the engine's core
// contract on a clean machine: for every built-in fixed-key kind, the
// level-wise batch returns exactly what sequential per-query lookups
// return, probe for probe, under shuffled order, duplicates, and
// misses.
func TestQueryBatchLevelWiseMatchesPerQuery(t *testing.T) {
	for _, kind := range batchKinds {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			keys, vals := testKeys(256, 16, 21)
			absent, _ := testKeys(32, 16, 22)
			probes := batchTestProbes(keys, absent, 48, 23)

			s := NewSystem(CoreIntegrated)
			tb, err := s.Build(kind, keys, vals)
			if err != nil {
				t.Fatal(err)
			}
			got, err := s.QueryBatch(tb, probes, WithBatchMode(BatchLevelWise))
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range probes {
				want, err := s.Query(tb, p)
				if err != nil {
					t.Fatal(err)
				}
				g := got[i]
				if g.Found != want.Found || g.Value != want.Value || (g.Err == nil) != (want.Err == nil) {
					t.Fatalf("probe %d: batch (found=%v value=%d err=%v) != per-query (found=%v value=%d err=%v)",
						i, g.Found, g.Value, g.Err, want.Found, want.Value, want.Err)
				}
			}
		})
	}
}

// TestQueryBatchLevelWiseUnderChaosAndMutation is the property test:
// with fault injection and the cycle watchdog armed and software
// mutations interleaved between batches, the level-wise batch's
// answers still equal sequential per-query lookups on the same table
// state once every faulted result on either side is re-executed in
// software — and the epoch GC records zero read-after-retire
// violations.
func TestQueryBatchLevelWiseUnderChaosAndMutation(t *testing.T) {
	for _, kind := range []StructKind{KindBST, KindSkipList, KindCuckoo} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			s := NewSystem(CoreIntegrated,
				// Recoverable chaos only: timing faults and spurious traps
				// retry or re-execute to the correct answer; flip corrupts
				// data silently and no execution strategy can agree on it.
				WithFaultInjection(MustParseFaultSpec("17:nocdelay=0.05,spurious=0.02,evict=0.05,shootdown=0.05")),
				WithQueryCycleBudget(2_000_000))
			keys, vals := testKeys(128, 16, 41)
			absent, extra := testKeys(64, 16, 42)
			mt, err := s.BuildMutable(kind, keys, vals)
			if err != nil {
				t.Fatal(err)
			}

			rng := rand.New(rand.NewSource(43))
			live := append([][]byte(nil), keys...)
			for round := 0; round < 4; round++ {
				// Mutate between batches: a few inserts of fresh keys and
				// deletes of live ones.
				for i := 0; i < 6; i++ {
					j := round*8 + i
					if i%2 == 0 && j < len(absent) {
						if err := mt.Insert(absent[j], extra[j]); err != nil {
							t.Fatal(err)
						}
						live = append(live, absent[j])
					} else if len(live) > 8 {
						di := rng.Intn(len(live))
						if _, err := mt.Delete(live[di]); err != nil {
							t.Fatal(err)
						}
						live = append(live[:di], live[di+1:]...)
					}
				}
				probes := batchTestProbes(live, absent, 32, 44+int64(round))
				got, err := s.QueryBatch(mt.Table, probes, WithBatchMode(BatchLevelWise))
				if err != nil {
					t.Fatal(err)
				}
				// resolve re-executes a faulted result in software, the
				// caller-side degradation a direct System user applies.
				resolve := func(res Result, p []byte) Result {
					if res.Err == nil {
						return res
					}
					sw, err := s.QuerySoftware(mt.Table, p)
					if err != nil {
						t.Fatal(err)
					}
					return sw
				}
				for i, p := range probes {
					want, err := s.Query(mt.Table, p)
					if err != nil {
						t.Fatal(err)
					}
					want = resolve(want, p)
					g := resolve(got[i], p)
					// Under chaos the answer (found/value) is the invariant;
					// latency and the recovery route may differ.
					if g.Found != want.Found || g.Value != want.Value {
						t.Fatalf("round %d probe %d: batch (found=%v value=%d) != per-query (found=%v value=%d)",
							round, i, g.Found, g.Value, want.Found, want.Value)
					}
				}
			}
			if v := s.EpochViolations(); v != 0 {
				t.Fatalf("%d read-after-retire epoch violations", v)
			}
		})
	}
}

// TestQueryBatchLevelWiseDeterministic pins determinism: two fresh
// machines given the identical batch produce identical cycle counts,
// results, and engine counters.
func TestQueryBatchLevelWiseDeterministic(t *testing.T) {
	keys, vals := testKeys(512, 16, 51)
	absent, _ := testKeys(32, 16, 52)
	probes := batchTestProbes(keys, absent, 64, 53)

	run := func() ([]Result, uint64, iqei.Stats) {
		s := NewSystem(CoreIntegrated)
		tb, err := s.Build(KindBTree, keys, vals)
		if err != nil {
			t.Fatal(err)
		}
		start := s.Now()
		rs, err := s.QueryBatch(tb, probes, WithBatchMode(BatchLevelWise))
		if err != nil {
			t.Fatal(err)
		}
		return rs, s.Now() - start, s.accel.Stats()
	}
	r1, c1, st1 := run()
	r2, c2, st2 := run()
	if c1 != c2 {
		t.Fatalf("batch cycles differ across identical runs: %d vs %d", c1, c2)
	}
	if st1 != st2 {
		t.Fatalf("engine stats differ across identical runs:\n%+v\n%+v", st1, st2)
	}
	for i := range r1 {
		if r1[i].Found != r2[i].Found || r1[i].Value != r2[i].Value || r1[i].Latency != r2[i].Latency {
			t.Fatalf("probe %d differs across identical runs: %+v vs %+v", i, r1[i], r2[i])
		}
	}
	if st1.BatchTranslationsSaved == 0 || st1.BatchLinesDeduped == 0 {
		t.Fatalf("amortization counters flat: %+v", st1)
	}
}

// TestQueryBatchForeignStall pins the foreign-stall contract of both
// batch paths: when every QST entry is held by foreign entries that can
// never complete, QueryBatch surfaces an error satisfying
// errors.Is(err, ErrQSTFull), with one qei: prefix, instead of spinning
// or panicking.
func TestQueryBatchForeignStall(t *testing.T) {
	keys, vals := testKeys(64, 16, 61)
	s := NewSystem(CoreIntegrated)
	tb, err := s.Build(KindBTree, keys, vals)
	if err != nil {
		t.Fatal(err)
	}
	// Swap in a zero-capacity accelerator over the same machine and
	// firmware registry: every issue sees a full QST with no in-flight
	// entry that could ever retire — the never-completing-foreigners
	// condition in its purest form.
	p := s.accel.Params()
	p.QSTEntriesPerInstance = 0
	s.accel = iqei.New(s.m, p, s.reg, 0)

	for _, mode := range []BatchMode{BatchWindowed, BatchLevelWise} {
		_, err = s.QueryBatch(tb, keys[:8], WithBatchMode(mode))
		if err == nil {
			t.Fatalf("%s batch on a fully-foreign QST returned no error", mode)
		}
		if !errors.Is(err, ErrQSTFull) {
			t.Fatalf("%s foreign-stall error does not satisfy errors.Is(err, ErrQSTFull): %v", mode, err)
		}
		if n := strings.Count(err.Error(), "qei:"); n != 1 {
			t.Fatalf("%s foreign-stall error %q repeats the qei: prefix", mode, err)
		}
	}
}

// TestServeBatchedAdmission pins the serving frontend's batched path:
// the same stream served with and without batched admission retires
// every request with identical architectural answers, and the batch
// report carries the flush and amortization counters.
func TestServeBatchedAdmission(t *testing.T) {
	cfg := DefaultServingConfig()
	cfg.Requests = 160
	cfg.Kind = KindBTree
	cfg.KeepResults = true

	plain, err := RunServing(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.BatchAdmit = 8
	batched, err := RunServing(cfg)
	if err != nil {
		t.Fatal(err)
	}

	if batched.Batch == nil {
		t.Fatal("batched run carries no batch report")
	}
	if batched.Batch.Batches == 0 || batched.Batch.BatchedReads == 0 {
		t.Fatalf("batched run flushed nothing: %+v", batched.Batch)
	}
	if batched.Batch.TranslationsSaved == 0 {
		t.Fatalf("batched run amortized no translations: %+v", batched.Batch)
	}
	if plain.Batch != nil {
		t.Fatal("plain run unexpectedly carries a batch report")
	}
	if got, want := batched.Total.Requests, plain.Total.Requests; got != want {
		t.Fatalf("batched run retired %d requests, plain retired %d", got, want)
	}
	for seq := range plain.Results {
		p, b := plain.Results[seq], batched.Results[seq]
		if p.Found != b.Found || p.Value != b.Value {
			t.Fatalf("request %d: batched (found=%v value=%d) != plain (found=%v value=%d)",
				seq, b.Found, b.Value, p.Found, p.Value)
		}
	}
	if v := batched.EpochViolations; v != 0 {
		t.Fatalf("%d epoch violations under batched admission", v)
	}

	// The software walker has no batch path; batched admission on it is
	// a configuration error, not a silent fallback.
	cfg.Backend = "baseline"
	if _, err := RunServing(cfg); err == nil {
		t.Fatal("baseline backend accepted batched admission")
	}

	// Batched admission under writes keeps read-your-writes ordering:
	// the run must still match its unbatched twin per request.
	wcfg := DefaultServingConfig()
	wcfg.Requests = 160
	wcfg.Kind = KindBST
	wcfg.WriteFraction = 0.25
	wcfg.KeepResults = true
	wplain, err := RunServing(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	wcfg.BatchAdmit = 8
	wbatched, err := RunServing(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	for seq := range wplain.Results {
		p, b := wplain.Results[seq], wbatched.Results[seq]
		if p.Found != b.Found || p.Value != b.Value {
			t.Fatalf("write-mix request %d: batched (found=%v value=%d) != plain (found=%v value=%d)",
				seq, b.Found, b.Value, p.Found, p.Value)
		}
	}
	if v := wbatched.EpochViolations; v != 0 {
		t.Fatalf("%d epoch violations under batched admission with writes", v)
	}
}

// The qei adapter is the batch-capable backend the server requires.
var _ serve.BatchBackend = (*qeiServeBackend)(nil)
