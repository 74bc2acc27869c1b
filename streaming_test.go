package qei

import (
	"bytes"
	"encoding/json"
	"testing"

	"qei/internal/serve"
)

func TestStreamingSerialParallelIdentical(t *testing.T) {
	serial, err := StreamingConsistency(Small, WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := StreamingConsistency(Small, WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	if serial.String() != par.String() {
		t.Fatalf("parallel run diverged from serial:\n%s\nvs\n%s", serial, par)
	}
	if len(serial.Rows) != 4 {
		t.Fatalf("%d rows, want 4 structure kinds", len(serial.Rows))
	}
}

// streamRun generates cfg's stream and serves it as the streaming
// experiment does.
func streamRun(t *testing.T, cfg ServingConfig) *streamingRun {
	t.Helper()
	reqs, err := serve.Generate(cfg.GenConfig())
	if err != nil {
		t.Fatal(err)
	}
	run, err := runStreaming(cfg, cfg.GenConfig(), reqs, 0)
	if err != nil {
		t.Fatal(err)
	}
	return run
}

func TestStreamLiveReplayTraceIdentical(t *testing.T) {
	cfg := streamingConfig(Small, KindBTree)
	live := streamRun(t, cfg)
	if live.rep.Total.Mismatches != 0 || live.epoch.Violations != 0 {
		t.Fatalf("live run inconsistent: %+v, epoch %+v", live.rep.Total, live.epoch)
	}

	// A trace round-tripped through the JSONL codec replays the same
	// run: same results, same report, same table and epoch counters.
	gen := cfg.GenConfig()
	reqs, err := serve.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := serve.WriteTrace(&buf, gen, reqs); err != nil {
		t.Fatal(err)
	}
	rgen, rreqs, err := serve.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	replay, err := runStreaming(cfg, rgen, rreqs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := resultsDigest(live.rep.Results), resultsDigest(replay.rep.Results); a != b {
		t.Fatalf("trace replay digest %016x, live %016x", b, a)
	}
	lj, _ := json.Marshal(live.rep)
	rj, _ := json.Marshal(replay.rep)
	if !bytes.Equal(lj, rj) || live.mut != replay.mut || live.epoch != replay.epoch {
		t.Fatalf("trace replay diverged:\nlive   %s %+v %+v\nreplay %s %+v %+v",
			lj, live.mut, live.epoch, rj, replay.mut, replay.epoch)
	}
}

// Property: across seeds and structure kinds, no in-flight query ever
// dereferences a reclaimed address (the read watcher would count a
// violation), even under a write-heavy stream that reuses memory.
// Admission throttling proves lookups filled their window, so they
// were in flight across the writes.
func TestStreamNoReadAfterRetireProperty(t *testing.T) {
	kinds := []StructKind{KindSkipList, KindBST, KindBTree}
	var reused uint64
	for _, kind := range kinds {
		for seed := int64(1); seed <= 3; seed++ {
			cfg := streamingConfig(Small, kind)
			cfg.Seed = seed
			cfg.WriteFraction = 0.5
			cfg.DeleteFraction = 0.5
			run := streamRun(t, cfg)
			if run.epoch.Violations != 0 {
				t.Fatalf("%s seed %d: %d read-after-retire violations", kind, seed, run.epoch.Violations)
			}
			if run.rep.Total.Mismatches != 0 {
				t.Fatalf("%s seed %d: %d host-model mismatches", kind, seed, run.rep.Total.Mismatches)
			}
			if run.epoch.Retired == 0 {
				t.Fatalf("%s seed %d: write-heavy stream retired nothing", kind, seed)
			}
			if run.rep.Total.Throttled == 0 {
				t.Fatalf("%s seed %d: lookups never filled their window", kind, seed)
			}
			reused += run.epoch.Reused
		}
	}
	if reused == 0 {
		t.Fatal("no run ever reused reclaimed memory; the property was vacuous")
	}
}

// Chaos soak: the deterministic fault injector fires while the stream
// mutates and queries concurrently. Architectural faults and corrupted
// lookups are tolerated (counted, not fatal); the run itself must stay
// deterministic and complete every operation.
func TestStreamChaosSoakWithFaults(t *testing.T) {
	cfg := streamingConfig(Small, KindSkipList)
	cfg.WriteFraction = 0.4
	faults := MustParseFaultSpec("11:flip=0.002,spurious=0.02,nocdelay=0.01")
	cfg.Faults = &faults

	soak := streamRun(t, cfg)
	if tot := soak.rep.Total; tot.Requests+tot.Writes != uint64(cfg.Requests) {
		t.Fatalf("soak completed %d reads + %d writes of %d ops", tot.Requests, tot.Writes, cfg.Requests)
	}
	if soak.rep.FaultsInjected == 0 {
		t.Fatal("chaos schedule injected nothing")
	}
	again := streamRun(t, cfg)
	digest := resultsDigest(soak.rep.Results)
	if d := resultsDigest(again.rep.Results); d != digest {
		t.Fatalf("chaos soak not deterministic: %016x vs %016x", d, digest)
	}

	// The same stream without faults must behave differently — proof
	// the injector actually engaged the overlapped read-write path.
	cfg.Faults = nil
	clean := streamRun(t, cfg)
	if resultsDigest(clean.rep.Results) == digest {
		t.Fatal("fault injection changed nothing; soak was vacuous")
	}
	if clean.rep.Total.Mismatches != 0 || clean.epoch.Violations != 0 {
		t.Fatalf("clean run inconsistent: %+v, epoch %+v", clean.rep.Total, clean.epoch)
	}
}
