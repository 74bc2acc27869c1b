package main

import (
	"fmt"
	"sort"

	"qei/internal/serve"
)

// keyState is one key's contents in the host model: present with a
// value, or absent.
type keyState struct {
	present bool
	value   uint64
}

// matches reports whether a lookup answer agrees with state s.
func (s keyState) matches(r serve.Result) bool {
	if !s.present {
		return !r.Found
	}
	return r.Found && r.Value == s.value
}

// keyWrite is one write to a key: its stream position, arrival cycle,
// and the key's state after it.
type keyWrite struct {
	seq   int
	at    uint64
	after keyState
}

// verdict is the oracle's account of one serving run.
type verdict struct {
	Requests int64 // reads and writes in the stream
	Reads    int64
	// Wrong counts answers no key state explains: reads returning a
	// value the key did not hold, and deletes misreporting presence.
	Wrong int64
	// Errors counts reads that surfaced a fault to the caller.
	Errors int64
	// ShedLike counts mismatching reads whose result is the empty one
	// the server records for a shed request (no answer, finished past
	// the deadline); they are accounted by the report's shed count, not
	// as wrong answers.
	ShedLike int64
	// Newer counts correct reads answered with the state after a write
	// that arrived later in the stream but before the read completed.
	Newer int64
}

// note summarizes the verdict for the run's diagnostics; shed is the
// report's shed count.
func (v verdict) note(shed uint64) string {
	return fmt.Sprintf("oracle: %d reads, %d wrong, %d errors, %d shed, %d saw a later write's value",
		v.Reads, v.Wrong, v.Errors, shed, v.Newer)
}

// checkServing replays the stream through a per-tenant host model of
// the tables and judges every result. A read is correct if its answer
// equals the key's state after the last earlier write in stream order,
// or after some later write to that key that arrived before the read
// completed (a read still in flight, or failed over to software, may
// observe it). Writes apply in stream order, so a delete's reported
// presence must equal the state before it. dl is the shed deadline
// (0 when shedding is off).
func checkServing(gen serve.GenConfig, reqs []serve.Request, results []serve.Result, dl uint64) verdict {
	initial := make(map[string]keyState, gen.Tenants*gen.KeysPerTenant)
	for t := 0; t < gen.Tenants; t++ {
		keys, values := serve.TenantKeys(gen, t)
		for i, k := range keys {
			initial[string(k)] = keyState{present: true, value: values[i]}
		}
	}
	// Per-key write history in stream order, and each delete's
	// expected presence.
	history := make(map[string][]keyWrite)
	cur := make(map[string]keyState)
	state := func(k string) keyState {
		if s, ok := cur[k]; ok {
			return s
		}
		return initial[k]
	}
	v := verdict{Requests: int64(len(reqs))}
	for i := range reqs {
		r := &reqs[i]
		k := string(r.Key)
		switch r.Op {
		case serve.OpGet:
			continue
		case serve.OpPut:
			if !results[i].Found {
				v.Wrong++
			}
			cur[k] = keyState{present: true, value: r.Value}
		case serve.OpDel:
			if results[i].Found != state(k).present {
				v.Wrong++
			}
			cur[k] = keyState{}
		}
		history[k] = append(history[k], keyWrite{seq: r.Seq, at: r.At, after: cur[k]})
	}
	for i := range reqs {
		r := &reqs[i]
		if r.Op != serve.OpGet {
			continue
		}
		v.Reads++
		res := results[i]
		if res.Err != nil {
			v.Errors++
			continue
		}
		k := string(r.Key)
		h := history[k]
		next := sort.Search(len(h), func(j int) bool { return h[j].seq > r.Seq })
		before := initial[k]
		if next > 0 {
			before = h[next-1].after
		}
		if before.matches(res) {
			continue
		}
		ok := false
		for j := next; j < len(h) && h[j].at <= res.Done; j++ {
			if h[j].after.matches(res) {
				ok = true
				break
			}
		}
		switch {
		case ok:
			v.Newer++
		case dl > 0 && res == (serve.Result{Done: res.Done}) && res.Done > r.At+dl:
			v.ShedLike++
		default:
			v.Wrong++
		}
	}
	return v
}
