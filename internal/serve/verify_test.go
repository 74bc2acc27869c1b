package serve

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"qei/internal/metrics"
)

// testGenGrow is a one-tenant 40%-write stream whose upserts grow the
// key set.
func testGenGrow() GenConfig {
	cfg := testGen()
	cfg.Tenants = 1
	cfg.Requests = 300
	cfg.WriteFraction = 0.4
	cfg.DeleteFraction = 0.4
	cfg.Grow = true
	return cfg
}

// keyRank decodes a TenantKey's rank.
func keyRank(k []byte) int { return int(binary.BigEndian.Uint32(k[4:8])) }

func TestGenerateGrowDeterministicAndMixed(t *testing.T) {
	cfg := testGenGrow()
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("equal configs generated different streams")
	}
	var gets, puts, dels, freshPuts, freshGets int
	for _, r := range a {
		fresh := keyRank(r.Key) >= cfg.KeysPerTenant
		switch r.Op {
		case OpGet:
			gets++
			if fresh {
				freshGets++
			}
		case OpPut:
			puts++
			if fresh {
				freshPuts++
			}
		case OpDel:
			dels++
			if fresh {
				t.Fatal("delete of a fresh rank: deletes pick from the hot set")
			}
		}
	}
	if gets == 0 || puts == 0 || dels == 0 || freshPuts == 0 || freshGets == 0 {
		t.Fatalf("stream not mixed: %d gets (%d fresh) %d puts (%d fresh) %d dels",
			gets, freshGets, puts, freshPuts, dels)
	}

	// Growth rewrites keys only: arrivals, tenants and ops are the
	// stream without it.
	flat := cfg
	flat.Grow = false
	c, err := Generate(flat)
	if err != nil {
		t.Fatal(err)
	}
	for i := range c {
		if c[i].At != a[i].At || c[i].Tenant != a[i].Tenant || c[i].Op != a[i].Op {
			t.Fatalf("request %d: growth moved more than the key: %+v vs %+v", i, a[i], c[i])
		}
		if keyRank(c[i].Key) >= cfg.KeysPerTenant {
			t.Fatalf("request %d: fresh rank without Grow", i)
		}
	}

	cfg.Seed++
	d, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, d) {
		t.Fatal("different seeds generated identical streams")
	}
}

func TestTenantKeyUniqueAndRanked(t *testing.T) {
	cfg := testGen()
	seen := map[string]bool{}
	for tn := 0; tn < 2; tn++ {
		for r := 0; r < cfg.KeysPerTenant+500; r++ {
			k := TenantKey(cfg, tn, r)
			if seen[string(k)] {
				t.Fatalf("tenant %d rank %d key collides", tn, r)
			}
			seen[string(k)] = true
			// Fresh ranks land past every existing key of the tenant:
			// the right edge of ordered structures.
			if r > 0 && bytes.Compare(TenantKey(cfg, tn, r-1), k) >= 0 {
				t.Fatal("keys not ordered by rank")
			}
		}
	}
}

// TestServerVerifiesAgainstModel serves a growing read-write stream on a
// faithful backend: every answer matches the host model, lookups miss
// as well as hit, and the window of in-flight lookups fills.
func TestServerVerifiesAgainstModel(t *testing.T) {
	gen := testGenGrow()
	reqs, err := Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	run := func() *Report {
		cfg := Config{Gen: gen, SlotsPerTenant: 4, WriteCost: 10, KeepResults: true}
		rep, err := Run(&fakeBackend{lat: 200, cap: 8}, cfg, reqs)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	rep := run()
	tot := rep.Total
	if tot.Mismatches != 0 {
		t.Fatalf("%d mismatches against a faithful backend", tot.Mismatches)
	}
	if tot.Requests+tot.Writes != uint64(len(reqs)) {
		t.Fatalf("reads %d + writes %d != %d", tot.Requests, tot.Writes, len(reqs))
	}
	if tot.Found == 0 || tot.Found == tot.Requests {
		t.Fatalf("stream exercised only one of hit and miss: %+v", tot)
	}
	if tot.Throttled == 0 {
		t.Fatal("lookup window never filled")
	}
	if !reflect.DeepEqual(rep, run()) {
		t.Fatal("identical runs diverged")
	}
}

// lyingBackend corrupts the answers of a faithful fakeBackend: lookups
// issued after the first wrongAfter come back with a flipped value, and
// deletes report the opposite presence.
type lyingBackend struct {
	*fakeBackend
	wrongAfter int
	issued     int
	lieDeletes bool
}

func (l *lyingBackend) QueryAsync(t Table, key []byte) (Handle, error) {
	h, err := l.fakeBackend.QueryAsync(t, key)
	if err != nil {
		return h, err
	}
	if l.issued++; l.issued > l.wrongAfter {
		fh := h.(*fakeHandle)
		fh.res.Found = true
		fh.res.Value ^= 0xBAD
	}
	return h, nil
}

func (l *lyingBackend) Delete(t Table, key []byte) (bool, error) {
	ok, err := l.fakeBackend.Delete(t, key)
	return ok != l.lieDeletes, err
}

func TestServerDetectsWrongValues(t *testing.T) {
	gen := testGenGrow()
	reqs, err := Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	var dels uint64
	for _, r := range reqs {
		if r.Op == OpDel {
			dels++
		}
	}
	for _, tc := range []struct {
		name string
		b    *lyingBackend
		want func(*Report) bool
	}{
		{"lookups", &lyingBackend{fakeBackend: &fakeBackend{lat: 200, cap: 8}, wrongAfter: 10},
			func(r *Report) bool { return r.Total.Mismatches > 0 && r.Total.Mismatches <= r.Total.Requests }},
		{"deletes", &lyingBackend{fakeBackend: &fakeBackend{lat: 200, cap: 8}, wrongAfter: len(reqs), lieDeletes: true},
			func(r *Report) bool { return r.Total.Mismatches == dels }},
	} {
		reg := metrics.NewRegistry()
		rep, err := Run(tc.b, Config{Gen: gen, Metrics: reg}, reqs)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !tc.want(rep) {
			t.Fatalf("%s: %d mismatches flagged (%d reads, %d deletes)", tc.name, rep.Total.Mismatches, rep.Total.Requests, dels)
		}
		if v := reg.Snapshot().Value("serve/mismatches"); v != rep.Total.Mismatches {
			t.Fatalf("%s: serve/mismatches = %d, want %d", tc.name, v, rep.Total.Mismatches)
		}
	}
}

// TestServerSkipsFaultedResults pins that a faulted lookup's answer
// carries no meaning: the server counts the fault, not a mismatch.
func TestServerSkipsFaultedResults(t *testing.T) {
	gen := testGen()
	reqs, err := Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	b := &flakyBackend{fakeBackend: fakeBackend{lat: 200, cap: 8}, failFirst: 50}
	rep, err := Run(b, Config{Gen: gen}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total.Faults == 0 {
		t.Fatal("no faults surfaced")
	}
	if rep.Total.Mismatches != 0 {
		t.Fatalf("%d faulted answers counted as mismatches", rep.Total.Mismatches)
	}
}
