package qei

import (
	"fmt"

	"qei/internal/baseline"
	"qei/internal/cpu"
	"qei/internal/isa"
)

// QuerySoftware executes one query on the software baseline walker,
// timed on a simulated core that shares the machine's memory system —
// the reference path the accelerator is compared against, and the
// "baseline" serving backend's execution engine. The issue clock
// advances by the software execution's cycle count. Walker errors
// (corrupt structure bytes) are returned as errors; tables of custom
// firmware kinds have no software walker and return ErrUnknownKind.
//
// It is also the software re-execution path of Sec. IV-D: a caller
// whose accelerated query came back with Result.Err set may re-run it
// here. Serving through serve.Resilience applies that policy (retry,
// failover, breaker) at one layer instead.
func (s *System) QuerySoftware(t Table, key []byte) (Result, error) {
	// The software walker reads the structure too: pin the epoch across
	// the walk so writers cannot reclaim nodes under it.
	if pinned, ok := s.pinQuery(); ok {
		defer s.gc.Unpin(pinned)
	}
	var res Result
	var tr isa.Trace
	switch t.Kind {
	case KindLinkedList, KindHashTable, KindCuckoo, KindSkipList, KindBST, KindBTree:
		var br baseline.Result
		var err error
		switch t.Kind {
		case KindLinkedList:
			br, err = baseline.QueryLinkedList(s.m.AS, t.header, key)
		case KindHashTable:
			br, err = baseline.QueryHashTable(s.m.AS, t.header, key)
		case KindCuckoo:
			br, err = baseline.QueryCuckoo(s.m.AS, t.header, key)
		case KindSkipList:
			br, err = baseline.QuerySkipList(s.m.AS, t.header, key)
		case KindBST:
			br, err = baseline.QueryBST(s.m.AS, t.header, key)
		case KindBTree:
			br, err = baseline.QueryBTree(s.m.AS, t.header, key)
		}
		if err != nil {
			return Result{}, err
		}
		res = Result{Found: br.Found, Value: br.Value}
		tr = br.Trace
	case KindTrie:
		sr, err := baseline.ScanTrie(s.m.AS, t.header, key)
		if err != nil {
			return Result{}, err
		}
		res = Result{Found: len(sr.Matches) > 0, Matches: sr.Matches}
		if res.Found {
			// The accelerator's scan firmware reports the last match.
			res.Value = sr.Matches[len(sr.Matches)-1]
		}
		tr = sr.Trace
	default:
		return Result{}, fmt.Errorf("%w: %s has no software walker", ErrUnknownKind, t.Name())
	}

	// Time the software path on a simulated core sharing the machine's
	// memory system — architecturally ordinary code.
	core := cpu.New(cpu.DefaultConfig(), s.m.CoreMemPort(0), nil)
	res.Latency = core.Run(tr)
	if err := core.Err(); err != nil {
		return Result{}, err
	}
	s.now += res.Latency
	return res, nil
}
