package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"

	"qei/internal/serve"
)

// heldOutSeed is the seed the correctness check is repeated on; the
// bounds in BENCHMARK.json were set from runs on seeds 1 to 10.
const heldOutSeed = 7919

type declared struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkJSON(t *testing.T) (e2e, layer []declared) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []declared `json:"end_to_end"`
		PerLayer []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b.EndToEnd, b.PerLayer
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestMetricsDeclared checks that the metric tables match
// BENCHMARK.json, and that what the command prints for a workload is
// exactly the declared set, with the declared units.
func TestMetricsDeclared(t *testing.T) {
	e2e, layer := readBenchmarkJSON(t)
	for _, c := range []struct {
		name  string
		specs []metricSpec
		decl  []declared
	}{{"end_to_end", endToEnd, e2e}, {"per_layer", perLayer, layer}} {
		if len(c.specs) != len(c.decl) {
			t.Fatalf("%s: program declares %d metrics, BENCHMARK.json %d", c.name, len(c.specs), len(c.decl))
		}
		for i, s := range c.specs {
			d := c.decl[i]
			if s.Name != d.Name || s.Unit != d.Unit || s.Better != d.Better {
				t.Errorf("%s[%d]: program %+v, BENCHMARK.json %+v", c.name, i, s, d)
			}
			if !metricName.MatchString(s.Name) {
				t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", s.Name)
			}
		}
	}

	for trace, decl := range [][]declared{e2e, layer} {
		var out, errOut bytes.Buffer
		o := options{workload: "serve-read", seed: 1, traced: trace == 1, requests: 3000}
		if code := execute(o, &out, &errOut); code != 0 {
			t.Fatalf("trace %d: exit %d: %s", trace, code, errOut.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("trace %d: last line: %v", trace, err)
		}
		units := map[string]string{}
		for _, d := range decl {
			units[d.Name] = d.Unit
		}
		for name, m := range res.Metrics {
			if u, ok := units[name]; !ok || u != m.Unit {
				t.Errorf("trace %d: printed %s in %q; declared: %v %q", trace, name, m.Unit, ok, u)
			}
		}
		if len(res.Metrics) != len(decl) {
			t.Errorf("trace %d: printed %d metrics, declared %d", trace, len(res.Metrics), len(decl))
		}
	}
}

// TestOracleJudgesOverlappingWrites exercises the oracle's rule on a
// hand-made stream: a read may return the state before it or after a
// later write that arrived before it completed, nothing else.
func TestOracleJudgesOverlappingWrites(t *testing.T) {
	gen := serve.GenConfig{Tenants: 1, Requests: 4, KeysPerTenant: 2, KeyLen: 16, Kind: "btree", MeanGap: 10}
	k0 := serve.TenantKey(gen, 0, 0)
	v0 := serve.TenantValue(0, 0)
	reqs := []serve.Request{
		{Seq: 0, At: 10, Key: k0},
		{Seq: 1, At: 20, Key: k0, Op: serve.OpPut, Value: 77},
		{Seq: 2, At: 30, Key: k0},
		{Seq: 3, At: 40, Key: k0, Op: serve.OpDel},
	}
	results := []serve.Result{
		{Found: true, Value: 77, Done: 25}, // saw the put that arrived at 20
		{Found: true, Done: 21},
		{Found: true, Value: v0, Done: 35}, // the put's value was overwritten
		{Found: true, Done: 41},
	}
	v := checkServing(gen, reqs, results, 0)
	if v.Reads != 2 || v.Newer != 1 || v.Wrong != 1 {
		t.Fatalf("verdict %+v, want 2 reads, 1 newer, 1 wrong", v)
	}
	results[2] = serve.Result{Found: true, Value: 77, Done: 35}
	if v := checkServing(gen, reqs, results, 0); v.Wrong != 0 {
		t.Fatalf("correct stream judged wrong: %+v", v)
	}
	results[0].Done = 15 // completed before the put arrived
	if v := checkServing(gen, reqs, results, 0); v.Wrong != 1 {
		t.Fatalf("read of a not-yet-arrived write passed: %+v", v)
	}
}

// plantBackend returns one wrong value: the n-th found answer it hands
// back has its value flipped.
type plantBackend struct {
	serve.Backend
	n, seen int
}

func (p *plantBackend) plant(r serve.Result, err error) (serve.Result, error) {
	if err == nil && r.Found {
		p.seen++
		if p.seen == p.n {
			r.Value ^= 1
		}
	}
	return r, err
}

func (p *plantBackend) Poll(h serve.Handle) (serve.Result, error) { return p.plant(p.Backend.Poll(h)) }
func (p *plantBackend) Wait(h serve.Handle) (serve.Result, error) { return p.plant(p.Backend.Wait(h)) }

func TestOracleCatchesPlantedWrongValue(t *testing.T) {
	cfg, err := serveConfig("serve-read", 1, 3000)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := serve.GenerateParallel(cfg.GenConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, plant := range []int{0, 1000} {
		wrap := func(b serve.Backend) serve.Backend { return &plantBackend{Backend: b, n: plant} }
		ts, err := serveTraced(cfg, reqs, newTracer(), -1, wrap)
		if err != nil {
			t.Fatal(err)
		}
		v, ok, failed := judge(cfg, reqs, ts.rep)
		want := int64(0)
		if plant > 0 {
			want = 1
		}
		if v.Wrong != want || failed != want || ok != (want == 0) {
			t.Errorf("planted at %d: verdict %+v, correct %v, failed %d; want %d wrong", plant, v, ok, failed, want)
		}
	}
}

// TestTracedRunMatchesReplayServing checks the traced run's
// faithfulness: serving through the timing decorator gives the report
// and results qei.ReplayServing gives, byte for byte.
func TestTracedRunMatchesReplayServing(t *testing.T) {
	for _, w := range workloads[1:] {
		cfg, err := serveConfig(w, 3, 5000)
		if err != nil {
			t.Fatal(err)
		}
		reqs, err := serve.GenerateParallel(cfg.GenConfig(), 1)
		if err != nil {
			t.Fatal(err)
		}
		plain, plainJSON, err := servePass(cfg, reqs)
		if err != nil {
			t.Fatal(err)
		}
		ts, err := serveTraced(cfg, reqs, newTracer(), -1, nil)
		if err != nil {
			t.Fatal(err)
		}
		tracedJSON, err := json.Marshal(ts.rep)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(plainJSON, tracedJSON) {
			t.Errorf("%s: traced report differs:\nplain  %s\ntraced %s", w, plainJSON, tracedJSON)
		}
		if !sameResults(plain.Results, ts.rep.Results) {
			t.Errorf("%s: traced per-request results differ", w)
		}
	}
}

// TestHeldOutSeed runs every workload's full-size inputs on a seed the
// bounds were not set on and requires the oracle to pass.
func TestHeldOutSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full bench matrix")
	}
	cells, err := matrixPass(matrixBenches(heldOutSeed), nil, -1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if probes, wrong := matrixMismatches(cells); probes == 0 || wrong != 0 {
		t.Errorf("matrix: %d wrong of %d probes", wrong, probes)
	}
	for _, w := range workloads[1:] {
		cfg, err := serveConfig(w, heldOutSeed, serveRequests)
		if err != nil {
			t.Fatal(err)
		}
		reqs, err := serve.GenerateParallel(cfg.GenConfig(), 1)
		if err != nil {
			t.Fatal(err)
		}
		rep, _, err := servePass(cfg, reqs)
		if err != nil {
			t.Fatal(err)
		}
		v, ok, failed := judge(cfg, reqs, rep)
		if !ok {
			t.Errorf("%s: oracle failed: %+v", w, v)
		}
		t.Logf("%s: %d requests, %d failed (%d wrong, %d errors, %d shed), %d read a later write",
			w, v.Requests, failed, v.Wrong, v.Errors, rep.Total.Shed, v.Newer)
	}
}

// TestRefKernelAllocatesNothing checks the reference kernel's claim
// that, once warmed, it allocates nothing, so the program's heap and the
// garbage collector cannot change its time.
func TestRefKernelAllocatesNothing(t *testing.T) {
	c := newRefClock()
	c.kernels = make([]float64, 0, 16) // the notes' record, not the kernel
	if n := testing.AllocsPerRun(5, func() { c.kernel() }); n != 0 {
		t.Errorf("kernel allocates %v times per run", n)
	}
}
