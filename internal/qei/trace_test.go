package qei

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"qei/internal/dstruct"
	"qei/internal/isa"
	"qei/internal/scheme"
	"qei/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/query_trace_golden.json from the current tracer export")

// traceEvent is one parsed Chrome trace-event entry.
type traceEvent struct {
	Name string `json:"name"`
	Cat  string `json:"cat"`
	Ph   string `json:"ph"`
	TS   uint64 `json:"ts"`
	Dur  uint64 `json:"dur"`
	Pid  int    `json:"pid"`
	Tid  int    `json:"tid"`
}

// qstSpans parses an exported trace document (failing the test if it is
// not valid trace-event JSON) and returns its "qst" query spans.
func qstSpans(t *testing.T, doc string) []traceEvent {
	t.Helper()
	var parsed struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(doc), &parsed); err != nil {
		t.Fatalf("trace not valid JSON: %v\n%s", err, doc)
	}
	var out []traceEvent
	for _, e := range parsed.TraceEvents {
		if e.Cat == "qst" {
			out = append(out, e)
		}
	}
	return out
}

func TestTracingSpansAndExport(t *testing.T) {
	m, a := newAccel(t, scheme.CoreIntegrated)
	tr := trace.New(0)
	a.SetTracer(tr)
	keys, vals := genKeys(50, 16, 60)
	ck := dstruct.BuildCuckoo(m.AS, 64, 4, 5, keys, vals)
	for i := 0; i < 20; i++ {
		qd := &isa.QueryDesc{HeaderAddr: ck.HeaderAddr, KeyAddr: stage(m, keys[i]), Tag: uint64(i)}
		if _, err := a.IssueBlocking(qd, 0); err != nil {
			t.Fatal(err)
		}
	}
	spans := qstSpans(t, tr.Export())
	if len(spans) != 20 {
		t.Fatalf("qst spans = %d, want 20", len(spans))
	}
	for _, s := range spans {
		if s.Ph != "X" {
			t.Fatalf("span %+v is not a complete event (ph=X)", s)
		}
		if s.Name != "query" {
			t.Fatalf("span %+v unexpectedly named %q", s, s.Name)
		}
		if s.Pid != trace.PidQST(0) {
			t.Fatalf("span %+v off the core-integrated instance's track", s)
		}
		if s.Tid < 0 || s.Tid >= 10 {
			t.Fatalf("span %+v in slot %d — QST has 10", s, s.Tid)
		}
	}
	// Overlap: with all 20 issued at cycle 0, at least two spans overlap.
	overlap := false
	for i := range spans {
		for j := i + 1; j < len(spans); j++ {
			if spans[i].TS < spans[j].TS+spans[j].Dur && spans[j].TS < spans[i].TS+spans[i].Dur {
				overlap = true
			}
		}
	}
	if !overlap {
		t.Fatal("no overlapping spans — QST parallelism invisible")
	}
}

func TestTracingFaultMarked(t *testing.T) {
	m, a := newAccel(t, scheme.CoreIntegrated)
	tr := trace.New(0)
	a.SetTracer(tr)
	key := stage(m, make([]byte, 8))
	if _, err := a.IssueBlocking(&isa.QueryDesc{HeaderAddr: 0xbad0000, KeyAddr: key, Tag: 9}, 0); err != nil {
		t.Fatal(err)
	}
	spans := qstSpans(t, tr.Export())
	if len(spans) != 1 || spans[0].Name != "query!EXCEPTION" {
		t.Fatalf("faulting query's span not marked: %+v", spans)
	}
}

// TestExportChromeTraceGolden pins the tracer's exported bytes for a
// fixed multi-instance run with a faulting query: field ordering, the
// qst/cha/tlb categories, PidQST track mapping, and the EXCEPTION
// marker must not drift. Regenerate with `go test -run
// TestExportChromeTraceGolden -update`.
func TestExportChromeTraceGolden(t *testing.T) {
	m, a := newAccel(t, scheme.CHATLB)
	tr := trace.New(0)
	a.SetTracer(tr)
	keys, vals := genKeys(16, 16, 62)
	ck := dstruct.BuildCuckoo(m.AS, 16, 4, 5, keys, vals)
	for i := 0; i < 4; i++ {
		qd := &isa.QueryDesc{HeaderAddr: ck.HeaderAddr, KeyAddr: stage(m, keys[i]), Tag: uint64(i)}
		if _, err := a.IssueBlocking(qd, uint64(10*i)); err != nil {
			t.Fatal(err)
		}
	}
	bad := &isa.QueryDesc{HeaderAddr: 0xbad0000, KeyAddr: stage(m, keys[0]), Tag: 4}
	if _, err := a.IssueBlocking(bad, 40); err != nil {
		t.Fatal(err)
	}
	got := tr.Export()

	golden := filepath.Join("testdata", "query_trace_golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to generate): %v", err)
	}
	if got != string(want) {
		t.Fatalf("export drifted from golden file\n--- got:\n%s--- want:\n%s", got, want)
	}

	spans := qstSpans(t, got)
	if len(spans) != 5 || spans[len(spans)-1].Name != "query!EXCEPTION" {
		t.Fatalf("golden export has qst spans %+v, want 5 ending in the fault", spans)
	}
}

func TestTracingOffByDefault(t *testing.T) {
	m, a := newAccel(t, scheme.CoreIntegrated)
	tr := trace.New(0)
	a.SetTracer(tr)
	a.SetTracer(nil) // detach: a nil tracer records nothing
	keys, vals := genKeys(5, 16, 61)
	ck := dstruct.BuildCuckoo(m.AS, 16, 4, 5, keys, vals)
	qd := &isa.QueryDesc{HeaderAddr: ck.HeaderAddr, KeyAddr: stage(m, keys[0]), Tag: 0}
	if _, err := a.IssueBlocking(qd, 0); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 0 {
		t.Fatalf("detached tracer recorded %d events", tr.Len())
	}
}
