package main

import (
	"bytes"
	"fmt"

	"qei"
)

// runFaultSmoke is the -faults mode: a standalone chaos smoke that
// drives a replayable fault schedule through every built-in structure
// kind via the public API and checks the architectural contract — no
// panic escapes the System and every blocking query resolves to either
// an accelerator result or an architectural fault. Each faulted query
// is then re-executed on the software walker (QuerySoftware, the
// paper's software re-execution path), whose answer must agree with the
// key set: injected faults only alter the accelerator's view of memory.
// It exits non-zero (via fail) on any unresolved query or wrong
// software answer.
func runFaultSmoke(spec string) {
	fs, err := qei.ParseFaultSpec(spec)
	if err != nil {
		fail("bad -faults spec: %v", err)
	}
	sys := qei.NewSystem(qei.CoreIntegrated,
		qei.WithMetrics(),
		qei.WithFaultInjection(fs),
		qei.WithQueryCycleBudget(2_000_000))

	keys, vals := smokeKeys(48, 16)
	absent, _ := smokeKeys(8, 17) // distinct stream: misses by construction

	var ok, faulted, queries int
	// resolve classifies one blocking query's outcome; a faulted one is
	// re-executed in software and handed to check.
	resolve := func(label string, t qei.Table, key []byte, res qei.Result, err error, check func(qei.Result) bool) {
		queries++
		if err != nil {
			fail("%s query did not resolve: %v", label, err)
		}
		if res.Err == nil {
			ok++
			return
		}
		faulted++
		sw, err := sys.QuerySoftware(t, key)
		if err != nil {
			fail("%s software re-execution: %v", label, err)
		}
		if !check(sw) {
			fail("%s software re-execution gave %+v", label, sw)
		}
	}

	for _, kind := range []qei.StructKind{qei.KindLinkedList, qei.KindCuckoo, qei.KindSkipList, qei.KindBST} {
		table, err := sys.Build(kind, keys, vals)
		if err != nil {
			fail("build %s: %v", kind, err)
		}
		for i, k := range keys {
			res, err := sys.Query(table, k)
			resolve(kind.String(), table, k, res, err, func(r qei.Result) bool {
				return r.Found && r.Value == vals[i]
			})
		}
		for _, k := range absent {
			res, err := sys.Query(table, k)
			resolve(kind.String(), table, k, res, err, func(r qei.Result) bool { return !r.Found })
		}
	}

	words := [][]byte{[]byte("fault"), []byte("inject"), []byte("chaos")}
	trie, err := sys.Build(qei.KindTrie, words, []uint64{1, 2, 3})
	if err != nil {
		fail("build trie: %v", err)
	}
	for _, in := range [][]byte{
		[]byte("chaos smoke injects faults into the walk"),
		[]byte("clean input"),
	} {
		// A scan matches exactly the keywords the input contains.
		present := map[uint64]bool{}
		for i, w := range words {
			if bytes.Contains(in, w) {
				present[uint64(i+1)] = true
			}
		}
		res, err := sys.Scan(trie, in)
		resolve("trie", trie, in, res, err, func(r qei.Result) bool {
			if r.Found != (len(present) > 0) {
				return false
			}
			for _, m := range r.Matches {
				if !present[m] {
					return false
				}
			}
			return true
		})
	}

	st := sys.Stats()
	fmt.Printf("fault smoke  %s\n", fs)
	fmt.Printf("queries      %d (%d ok, %d faulted)\n", queries, ok, faulted)
	fmt.Printf("injection    %d faults injected, %d retries, %d timeouts, %d exceptions\n",
		sys.FaultsInjected(), st.Retries, st.Timeouts, st.Exceptions)
	fmt.Printf("software     %d re-executions\n", faulted)
}

// smokeKeys generates n deterministic fixed-length keys with distinct
// values, seeded by stream.
func smokeKeys(n, stream int) ([][]byte, []uint64) {
	keys := make([][]byte, n)
	vals := make([]uint64, n)
	for i := range keys {
		k := make([]byte, 16)
		x := uint64(i+1) * 0x9E3779B97F4A7C15 >> 1
		x ^= uint64(stream) * 0xA24BAED4963EE407
		for j := range k {
			k[j] = byte(x >> (uint(j%8) * 8))
			if j == 7 {
				x *= 0xD6E8FEB86659FD93
			}
		}
		keys[i] = k
		vals[i] = uint64(i + 1)
	}
	return keys, vals
}
