package workload

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"qei/internal/qei"
	"qei/internal/scheme"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/runs_golden.json from the current runners")

const runsGoldenPath = "testdata/runs_golden.json"

// goldenEntry pins one run: the digest covers every simulated field of
// the Run; Cycles is kept beside it so a diff shows which run moved and
// by how much.
type goldenEntry struct {
	Cycles uint64 `json:"cycles"`
	Digest string `json:"digest"`
}

// runDigest folds every simulated field of r — makespan, core stats,
// memory-system deltas, accelerator stats and mismatches — into one
// FNV-1a value.
func runDigest(r Run) string {
	var accel qei.Stats
	if r.Accel != nil {
		accel = *r.Accel
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d|%s|%d|%d|%+v|%d,%d,%d,%d,%d,%d,%d|%+v|%d|%g,%g",
		r.Name, r.Mode, r.Scheme, r.Queries, r.Cycles, r.Core,
		r.L1Accesses, r.L2Accesses, r.LLCAccesses, r.DRAMAccesses,
		r.NoCBytes, r.TLBLookups, r.PageWalks,
		accel, r.Mismatches, r.PeakLinkUtil, r.MeanUtil)
	return fmt.Sprintf("%016x", h.Sum64())
}

// goldenRuns executes every runner in every mode over the small
// benchmarks: RunBaseline and RunQEI (each scheme) in Full, ROIOnly and
// NonROIOnly, RunQEINonBlocking per scheme, and RunMultiCore at 1 and 4
// cores per scheme.
func goldenRuns(t *testing.T) map[string]goldenEntry {
	t.Helper()
	got := make(map[string]goldenEntry)
	put := func(key string, r Run, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		if r.Mismatches != 0 {
			t.Errorf("%s: %d mismatches", key, r.Mismatches)
		}
		got[key] = goldenEntry{Cycles: r.Cycles, Digest: runDigest(r)}
	}
	modes := []Mode{Full, ROIOnly, NonROIOnly}
	for _, b := range AllSmall() {
		for _, mode := range modes {
			r, err := RunBaseline(b, mode)
			put(fmt.Sprintf("%s/baseline/software/%d", b.Name(), mode), r, err)
		}
		for _, k := range scheme.Kinds() {
			for _, mode := range modes {
				r, err := RunQEI(b, k, mode)
				put(fmt.Sprintf("%s/qei/%s/%d", b.Name(), k, mode), r, err)
			}
			r, err := RunQEINonBlocking(b, k, 0)
			put(fmt.Sprintf("%s/nb/%s", b.Name(), k), r, err)
		}
	}
	for _, k := range scheme.Kinds() {
		for _, cores := range []int{1, 4} {
			res, err := RunMultiCore(SmallDPDK(), k, cores)
			if err != nil {
				t.Fatalf("multicore %s/%d: %v", k, cores, err)
			}
			h := fnv.New64a()
			fmt.Fprintf(h, "%+v", res)
			got[fmt.Sprintf("DPDK/multicore/%s/%d", k, cores)] = goldenEntry{
				Cycles: res.Makespan, Digest: fmt.Sprintf("%016x", h.Sum64()),
			}
		}
	}
	return got
}

// TestRunnerGolden pins every runner × mode × scheme of the small
// benchmarks to testdata/runs_golden.json, so refactors of the filler
// emitter, the builders or the core model must leave each run's
// simulated output byte-identical. After an intentional model change,
// regenerate with:
//
//	go test ./internal/workload -run TestRunnerGolden -update
func TestRunnerGolden(t *testing.T) {
	got := goldenRuns(t)
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(runsGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(runsGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(runsGoldenPath)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	var want map[string]goldenEntry
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		g, ok := got[k]
		if !ok {
			t.Errorf("%s: golden run not produced", k)
			continue
		}
		if g != want[k] {
			t.Errorf("%s: got cycles %d digest %s, golden cycles %d digest %s",
				k, g.Cycles, g.Digest, want[k].Cycles, want[k].Digest)
		}
	}
	if len(got) != len(want) {
		t.Errorf("produced %d runs, golden has %d", len(got), len(want))
	}
}
