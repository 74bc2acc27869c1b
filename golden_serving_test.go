package qei

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"testing"

	"qei/internal/serve"
)

var updateServingGolden = flag.Bool("update", false, "rewrite testdata/serving_golden.json from the current serving path")

const servingGoldenFile = "testdata/serving_golden.json"

// servingGoldenCases are the serving runs TestServingGolden pins: a
// read-only BST run on both backends, a 30%-write mix, a resilient
// chaos run with writes, and batched admission through the level-wise
// engine.
func servingGoldenCases() map[string]ServingConfig {
	cases := map[string]ServingConfig{}
	for _, be := range ServingBackends() {
		c := DefaultServingConfig()
		c.Backend = be
		c.WriteFraction = 0.3
		c.DeleteFraction = 0.4
		cases["writes30/"+be] = c
	}
	cases["chaos"] = chaosServingConfig()
	b := DefaultServingConfig()
	b.Kind = KindBTree
	b.MeanGap = 100
	b.BatchAdmit = 16
	cases["batch16"] = b
	return cases
}

// servingDigest folds a report's simulated fields into one FNV-1a
// value: every request's result, the makespan, backend totals and each
// tenant row's counters and percentiles. Field names and the JSON
// encoding play no part, so a report that gains a field keeps its
// digest.
func servingDigest(rep *serve.Report) string {
	h := fnv.New64a()
	for _, r := range rep.Results {
		fmt.Fprintln(h, r.Found, r.Value, r.Done, r.Err != nil)
	}
	fmt.Fprintln(h, rep.Backend, rep.Requests, rep.SlotsPerTenant, rep.Capacity,
		rep.MakespanCycles, rep.Queries, rep.Exceptions, rep.FaultsInjected, rep.EpochViolations)
	row := func(w io.Writer, ts serve.TenantStats) {
		fmt.Fprintln(w, ts.Tenant, ts.Requests, ts.Found, ts.Faults, ts.Throttled,
			ts.SLOViolations, ts.MeanLatency, ts.P50, ts.P99, ts.P999, ts.MaxLatency,
			ts.Writes, ts.WriteP50, ts.WriteP99, ts.Shed, ts.Retries, ts.FailedOver)
	}
	for _, ts := range rep.Tenants {
		row(h, ts)
	}
	row(h, rep.Total)
	if b := rep.Breaker; b != nil {
		fmt.Fprintln(h, b.State, b.Trips, b.FastFails, b.Probes)
	}
	if b := rep.Batch; b != nil {
		fmt.Fprintln(h, *b)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestServingGolden pins the serving path's simulated output: the
// small-scale "serving" experiment table and the per-request results
// and report counters of the servingGoldenCases runs. If it fails after
// an intentional model change, regenerate with
//
//	go test -run TestServingGolden -update .
//
// and justify the regeneration in the change description.
func TestServingGolden(t *testing.T) {
	got := map[string]string{}
	tbl, err := ServingPercentiles(Small)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	io.WriteString(h, tbl.String())
	got["experiment/serving"] = fmt.Sprintf("%016x", h.Sum64())
	for name, cfg := range servingGoldenCases() {
		cfg.KeepResults = true
		rep, err := RunServing(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got[name] = servingDigest(rep)
	}

	if *updateServingGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(servingGoldenFile, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(servingGoldenFile)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("%d digests, golden has %d", len(got), len(want))
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: digest %s, golden %s", name, got[name], w)
		}
	}
}
