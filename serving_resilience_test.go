package qei

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"qei/internal/serve"
)

// chaosServingConfig is the serving chaos soak: injected accelerator
// faults, a mixed read-write stream (so the epoch GC is armed), a tight
// SLO, and the full resilience layer.
func chaosServingConfig() ServingConfig {
	cfg := DefaultServingConfig()
	cfg.Tenants = 3
	cfg.Requests = 240
	cfg.KeysPerTenant = 64
	cfg.WriteFraction = 0.15
	cfg.DeleteFraction = 0.3
	cfg.SLO = 3000
	cfg.Resilient = true
	spec := MustParseFaultSpec("11:spurious=0.3,flip=0.03,shootdown=0.05")
	cfg.Faults = &spec
	return cfg
}

// TestServingChaosSoak is the headline robustness soak: faults x writes
// x tight SLO through the resilient serving path must complete without
// aborting, degrade at least one request to the software safety net,
// and keep the consistency contract — zero read-after-retire
// violations.
func TestServingChaosSoak(t *testing.T) {
	cfg := chaosServingConfig()
	rep, err := RunServing(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FaultsInjected == 0 {
		t.Fatal("chaos schedule injected nothing")
	}
	if rep.Total.FailedOver == 0 {
		t.Fatal("no request degraded to the software path under chaos")
	}
	if rep.EpochViolations != 0 {
		t.Fatalf("%d read-after-retire violations under chaos", rep.EpochViolations)
	}
	// Degraded, never wrong or lost: every request is accounted for as
	// completed, written, or shed.
	if got := rep.Total.Requests + rep.Total.Writes + rep.Total.Shed; got != uint64(cfg.Requests) {
		t.Fatalf("requests %d + writes %d + shed %d != %d",
			rep.Total.Requests, rep.Total.Writes, rep.Total.Shed, cfg.Requests)
	}
	// Failover absorbs the faults: nothing surfaces in the fault column.
	if rep.Total.Faults != 0 {
		t.Fatalf("%d faults surfaced despite failover", rep.Total.Faults)
	}
	if rep.Breaker == nil {
		t.Fatal("resilient qei run carries no breaker report")
	}
}

// TestServingChaosDeterministicAnyParallel pins that the chaos soak's
// outcome — shed, retries, failovers, breaker state, every percentile —
// is byte-identical at any generation worker count, and that replaying
// its recorded trace under the same fault schedule reproduces it
// exactly.
func TestServingChaosDeterministicAnyParallel(t *testing.T) {
	base := chaosServingConfig()

	var want *serve.Report
	for _, workers := range []int{1, 4, 8} {
		cfg := base
		cfg.GenWorkers = workers
		rep, err := RunServing(cfg)
		if err != nil {
			t.Fatalf("GenWorkers=%d: %v", workers, err)
		}
		if want == nil {
			want = rep
			continue
		}
		if !reflect.DeepEqual(want, rep) {
			t.Fatalf("chaos report differs at GenWorkers=%d:\nwant %+v\ngot  %+v", workers, want, rep)
		}
	}

	// Record/replay round trip: same trace + same -faults schedule =
	// identical shed/failover/digest outcomes, byte for byte.
	gen := base.GenConfig()
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
	replayed, err := ReplayServing(base, rgen, rreqs)
	if err != nil {
		t.Fatal(err)
	}
	lj, _ := json.Marshal(want)
	rj, _ := json.Marshal(replayed)
	if !bytes.Equal(lj, rj) {
		t.Fatalf("chaos replay differs from live run:\nlive   %s\nreplay %s", lj, rj)
	}
}

// TestServingFailoverEveryAdmissionPath pins that the serving layer's
// one degradation policy applies however a lookup was admitted. With
// every accelerator execution faulting, each completed lookup — admitted
// per query or through batches — was served by the software failover
// (breaker fast-fails included), and no fault surfaces. A partial fault
// schedule under batching still fails over and surfaces nothing.
func TestServingFailoverEveryAdmissionPath(t *testing.T) {
	cases := []struct {
		name   string
		faults string
		batch  int
		all    bool // every accelerator execution faults
	}{
		{"per-query", "3:spurious=1", 0, true},
		{"batched", "3:spurious=1", 16, true},
		{"batched-partial", "9:spurious=0.3,shootdown=0.05", 16, false},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultServingConfig()
			cfg.Resilient = true
			cfg.BatchAdmit = tc.batch
			spec := MustParseFaultSpec(tc.faults)
			cfg.Faults = &spec
			rep, err := RunServing(cfg)
			if err != nil {
				t.Fatal(err)
			}
			tot := rep.Total
			if tot.Faults != 0 {
				t.Fatalf("%d faults retired raw despite failover", tot.Faults)
			}
			if tot.Mismatches != 0 {
				t.Fatalf("%d answers disagree with the host model", tot.Mismatches)
			}
			if tc.all && tot.FailedOver != tot.Requests {
				t.Fatalf("failed over %d of %d completed lookups, want all", tot.FailedOver, tot.Requests)
			}
			if tot.FailedOver == 0 {
				t.Fatal("no lookup failed over")
			}
			if rep.EpochViolations != 0 {
				t.Fatalf("%d read-after-retire violations", rep.EpochViolations)
			}
		})
	}
}

// TestServingFaultsWithoutResilience pins the other half of the
// ServingConfig.Faults contract: with the resilience layer off, the
// run still completes — injected faults ride in the per-tenant fault
// counts instead of being absorbed by retry/failover.
func TestServingFaultsWithoutResilience(t *testing.T) {
	cfg := chaosServingConfig()
	cfg.Resilient = false
	rep, err := RunServing(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FaultsInjected == 0 {
		t.Fatal("chaos schedule injected nothing")
	}
	if rep.Total.Faults == 0 {
		t.Fatal("no injected fault surfaced in the report")
	}
	if rep.Total.FailedOver != 0 || rep.Total.Retries != 0 || rep.Total.Shed != 0 {
		t.Fatalf("resilience counters moved while off: %+v", rep.Total)
	}
	if rep.Breaker != nil {
		t.Fatalf("breaker report present while off: %+v", rep.Breaker)
	}
	if rep.EpochViolations != 0 {
		t.Fatalf("%d read-after-retire violations", rep.EpochViolations)
	}
}

// TestServingResilientQuietMatchesBaseline pins opt-in invariance end
// to end: on a clean machine with a generous deadline, the resilient
// run's per-tenant rows equal the non-resilient run's exactly, and the
// non-resilient report's JSON stays free of resilience fields (the
// byte-compatibility contract for existing consumers).
func TestServingResilientQuietMatchesBaseline(t *testing.T) {
	cfg := DefaultServingConfig()
	cfg.Requests = 120
	cfg.Tenants = 3

	plain, err := RunServing(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rcfg := cfg
	rcfg.Resilient = true
	rcfg.Deadline = 1 << 50
	resilient, err := RunServing(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Tenants, resilient.Tenants) || !reflect.DeepEqual(plain.Total, resilient.Total) {
		t.Fatalf("quiet resilient run changed tenant accounting:\nplain     %+v\nresilient %+v", plain.Total, resilient.Total)
	}
	j, err := json.Marshal(plain)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"shed", "retries", "failed_over", "breaker", "faults_injected", "epoch_violations"} {
		if strings.Contains(string(j), `"`+field+`"`) {
			t.Fatalf("non-resilient report JSON mentions %q", field)
		}
	}
}

// TestServingAdmissionStallExported pins the qei-taxonomy alias: the
// serving layer's stall sentinel is reachable (and errors.Is-matchable)
// from the public package.
func TestServingAdmissionStallExported(t *testing.T) {
	if ErrAdmissionStall == nil {
		t.Fatal("ErrAdmissionStall not exported")
	}
	if ErrAdmissionStall != serve.ErrAdmissionStall {
		t.Fatal("qei.ErrAdmissionStall is not the serve sentinel")
	}
}

// TestServingTimeline pins the serving timeline export: a resilient
// chaos run with Timeline set writes a Chrome trace document carrying
// the serving track's failover spans.
func TestServingTimeline(t *testing.T) {
	cfg := chaosServingConfig()
	cfg.Requests = 120
	cfg.Timeline = filepath.Join(t.TempDir(), "timeline.json")
	if _, err := RunServing(cfg); err != nil {
		t.Fatal(err)
	}
	doc, err := os.ReadFile(cfg.Timeline)
	if err != nil {
		t.Fatal(err)
	}
	for _, needle := range []string{"traceEvents", `"failover"`} {
		if !bytes.Contains(doc, []byte(needle)) {
			t.Fatalf("timeline missing %s", needle)
		}
	}
}
