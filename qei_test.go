package qei

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

func testKeys(n, keyLen int, seed int64) ([][]byte, []uint64) {
	rng := rand.New(rand.NewSource(seed))
	seen := map[string]bool{}
	keys := make([][]byte, 0, n)
	vals := make([]uint64, 0, n)
	for len(keys) < n {
		k := make([]byte, keyLen)
		rng.Read(k)
		if seen[string(k)] {
			continue
		}
		seen[string(k)] = true
		keys = append(keys, k)
		vals = append(vals, rng.Uint64()|1)
	}
	return keys, vals
}

// mustBuild is System.Build, failing the test on a build error.
func mustBuild(tb testing.TB, sys *System, kind StructKind, keys [][]byte, vals []uint64) Table {
	tb.Helper()
	table, err := sys.Build(kind, keys, vals)
	if err != nil {
		tb.Fatal(err)
	}
	return table
}

func TestSystemQuickstartFlow(t *testing.T) {
	sys := NewSystem(CoreIntegrated)
	keys, vals := testKeys(500, 16, 1)
	table := mustBuild(t, sys, KindCuckoo, keys, vals)
	for i := 0; i < 100; i++ {
		res, err := sys.Query(table, keys[i])
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found || res.Value != vals[i] {
			t.Fatalf("key %d: %+v want %d", i, res, vals[i])
		}
		if res.Latency == 0 {
			t.Fatal("zero latency reported")
		}
	}
	res, err := sys.Query(table, make([]byte, 16))
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Fatal("absent key found")
	}
	if sys.Stats().Queries != 101 {
		t.Fatalf("stats queries = %d", sys.Stats().Queries)
	}
}

func TestAllBuildersAndSchemes(t *testing.T) {
	keys, vals := testKeys(200, 16, 2)
	for _, sch := range Schemes() {
		sch := sch
		t.Run(sch.String(), func(t *testing.T) {
			t.Parallel()
			sys := NewSystem(sch)
			tables := []Table{}
			for _, build := range []func() (Table, error){
				func() (Table, error) { return sys.Build(KindCuckoo, keys, vals) },
				func() (Table, error) { return sys.Build(KindHashTable, keys, vals) },
				func() (Table, error) { return sys.Build(KindSkipList, keys, vals) },
				func() (Table, error) { return sys.Build(KindBST, keys, vals, WithBSTPayload(64)) },
				func() (Table, error) { return sys.Build(KindLinkedList, keys[:30], vals[:30]) },
			} {
				tb, err := build()
				if err != nil {
					t.Fatal(err)
				}
				tables = append(tables, tb)
			}
			for ti, tb := range tables {
				n := 50
				if tb.Kind == KindLinkedList {
					n = 30
				}
				for i := 0; i < n; i++ {
					res, err := sys.Query(tb, keys[i])
					if err != nil {
						t.Fatalf("%s: %v", tb.Kind, err)
					}
					if !res.Found || res.Value != vals[i] {
						t.Fatalf("table %d (%s) key %d: got %+v want %d", ti, tb.Kind, i, res, vals[i])
					}
				}
			}
		})
	}
}

func TestTrieScanAPI(t *testing.T) {
	sys := NewSystem(CoreIntegrated)
	tr, err := sys.Build(KindTrie, [][]byte{[]byte("alpha"), []byte("beta")}, []uint64{10, 20})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Scan(tr, []byte("xx alpha yy beta zz"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 2 || res.Matches[0] != 10 || res.Matches[1] != 20 {
		t.Fatalf("matches = %v", res.Matches)
	}
	// Scan on a non-trie table must be rejected.
	keys, vals := testKeys(10, 8, 3)
	ht, _ := sys.Build(KindHashTable, keys, vals)
	if _, err := sys.Scan(ht, []byte("x")); err == nil {
		t.Fatal("Scan accepted a hash table")
	}
}

// TestBuilderValidation pins the one input check in front of Build and
// BuildMutable: every key set the Fig. 4 header cannot describe — its
// key length is a 2-byte field of 1..65535 — is an error from both
// constructors for every kind, never a panic or a truncated KeyLen.
func TestBuilderValidation(t *testing.T) {
	sys := NewSystem(CoreIntegrated)
	fill := func(n int, b byte) []byte { return bytes.Repeat([]byte{b}, n) }
	bad := []struct {
		name string
		keys [][]byte
		vals []uint64
	}{
		{"empty key set", nil, nil},
		{"mismatched lengths", [][]byte{{1, 2}}, []uint64{1, 2}},
		{"ragged keys", [][]byte{{1, 2}, {1, 2, 3}}, []uint64{1, 2}},
		{"zero-length keys", [][]byte{{}, {}}, []uint64{11, 22}},
		{"65536-byte keys", [][]byte{fill(65536, 1), fill(65536, 2)}, []uint64{11, 22}},
		{"70000-byte keys", [][]byte{fill(70000, 1), fill(70000, 2)}, []uint64{11, 22}},
	}
	for _, c := range bad {
		for _, kind := range []StructKind{KindLinkedList, KindHashTable, KindCuckoo, KindSkipList, KindBST, KindBTree} {
			if tb, err := sys.Build(kind, c.keys, c.vals); err == nil {
				t.Errorf("Build(%s) accepted %s: KeyLen %d", kind, c.name, tb.KeyLen)
			}
			if kind == KindHashTable {
				continue
			}
			if tb, err := sys.BuildMutable(kind, c.keys, c.vals); err == nil {
				t.Errorf("BuildMutable(%s) accepted %s: KeyLen %d", kind, c.name, tb.KeyLen)
			}
		}
	}
	neg := WithBSTPayload(-1)
	if _, err := sys.Build(KindBST, [][]byte{{1}}, []uint64{1}, neg); err == nil {
		t.Error("Build accepted a negative BST payload")
	}
	if _, err := sys.BuildMutable(KindBST, [][]byte{{1}}, []uint64{1}, neg); err == nil {
		t.Error("BuildMutable accepted a negative BST payload")
	}

	// The widest key the header can describe still builds and answers.
	keys := [][]byte{fill(65535, 1), fill(65535, 2)}
	tb := mustBuild(t, sys, KindCuckoo, keys, []uint64{11, 22})
	if tb.KeyLen != 65535 {
		t.Fatalf("KeyLen = %d, want 65535", tb.KeyLen)
	}
	if res, err := sys.Query(tb, keys[1]); err != nil || !res.Found || res.Value != 22 {
		t.Fatalf("65535-byte key: %+v, %v; want value 22", res, err)
	}

	if _, err := sys.Build(KindTrie, [][]byte{[]byte("x")}, []uint64{0}); err == nil {
		t.Fatal("zero trie value accepted")
	}
	if _, err := sys.Build(KindCustom, [][]byte{{1}}, []uint64{1}); !errors.Is(err, ErrUnknownKind) {
		t.Fatalf("Build(KindCustom) = %v, want ErrUnknownKind", err)
	}
}

func TestAsyncQueryFlow(t *testing.T) {
	sys := NewSystem(CoreIntegrated)
	keys, vals := testKeys(100, 16, 4)
	table := mustBuild(t, sys, KindCuckoo, keys, vals)
	handles := make([]AsyncHandle, 10)
	for i := range handles {
		h, err := sys.QueryAsync(table, keys[i])
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = h
	}
	for i, h := range handles {
		res, err := sys.Wait(h)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found || res.Value != vals[i] {
			t.Fatalf("async %d: %+v want %d", i, res, vals[i])
		}
	}
}

func TestQueryLatencyOrderingAcrossSchemes(t *testing.T) {
	keys, vals := testKeys(300, 32, 5)
	latency := func(s Scheme) uint64 {
		sys := NewSystem(s)
		tb, err := sys.Build(KindSkipList, keys, vals)
		if err != nil {
			t.Fatal(err)
		}
		var total uint64
		for i := 0; i < 20; i++ {
			res, err := sys.Query(tb, keys[i*10])
			if err != nil {
				t.Fatal(err)
			}
			total += res.Latency
		}
		return total
	}
	ci := latency(CoreIntegrated)
	di := latency(DeviceIndirect)
	if ci >= di {
		t.Fatalf("Core-integrated latency (%d) should beat Device-indirect (%d)", ci, di)
	}
}

func TestExperimentTablesRender(t *testing.T) {
	tabI := TabI()
	if len(tabI.Rows) != 5 {
		t.Fatalf("TabI rows = %d", len(tabI.Rows))
	}
	if !strings.Contains(tabI.String(), "Core-integrated") {
		t.Fatal("TabI text missing Core-integrated")
	}
	if !strings.Contains(tabI.CSV(), "scheme,") {
		t.Fatal("CSV header missing")
	}
	tabII := TabII()
	if len(tabII.Rows) == 0 {
		t.Fatal("TabII empty")
	}
	tabIII := TabIII()
	if len(tabIII.Rows) != 3 {
		t.Fatalf("TabIII rows = %d", len(tabIII.Rows))
	}
}

func TestFig1SmallScale(t *testing.T) {
	res, err := Fig1QueryTimeShare(Small)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("Fig1 rows = %d, want 5", len(res.Rows))
	}
	for _, r := range res.Rows {
		var pct, mispredicts, loads, ipc float64
		for i, v := range []*float64{&pct, &mispredicts, &loads, &ipc} {
			if _, err := fmt.Sscanf(r[i+1], "%f", v); err != nil {
				t.Fatalf("%s column %s: %v", r[0], res.Headers[i+1], err)
			}
		}
		if pct < 15 || pct > 60 {
			t.Fatalf("%s query share %.1f%% outside plausible band", r[0], pct)
		}
		if loads <= 0 || mispredicts < 0 {
			t.Fatalf("%s: %.1f loads and %.2f mispredicts per query", r[0], loads, mispredicts)
		}
		// The core's 4-wide issue bounds IPC.
		if ipc <= 0 || ipc > 4 {
			t.Fatalf("%s ROI IPC %.2f outside (0, 4]", r[0], ipc)
		}
	}
}

func TestFig11SmallScale(t *testing.T) {
	res, err := Fig11InstrReduction(Small)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rows {
		var red float64
		fmt.Sscanf(r[3], "%f", &red)
		if red < 50 {
			t.Fatalf("%s instruction reduction only %.1f%%", r[0], red)
		}
	}
}

func TestPublicTracing(t *testing.T) {
	sys := NewSystem(CoreIntegrated, WithTimeline())
	keys, vals := testKeys(64, 16, 70)
	tb := mustBuild(t, sys, KindCuckoo, keys, vals)
	for i := 0; i < 12; i++ {
		if _, err := sys.Query(tb, keys[i]); err != nil {
			t.Fatal(err)
		}
	}
	doc := sys.ExportTrace()
	if n := strings.Count(doc, `"cat":"qst","ph":"X"`); n != 12 {
		t.Fatalf("trace export has %d qst spans, want 12:\n%s", n, doc)
	}
}
